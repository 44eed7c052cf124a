//! BRITE-style two-level (AS-level + router-level) topology generator.
//!
//! The paper's BRITE experiments work as follows (Section 5, "Topologies"):
//! a pair of AS-level and router-level topologies is generated; the
//! AS-level topology becomes the network graph seen by tomography, while
//! the hidden router-level topology determines which AS-level links are
//! correlated — two AS-level links are correlated iff they share at least
//! one router-level link. Congestion probabilities are assigned to
//! *router-level* links and the probabilities of AS-level links (and of
//! sets of correlated AS-level links) are derived from them.
//!
//! This module reproduces that construction without the BRITE binary:
//!
//! 1. the AS-level graph is a Barabási–Albert preferential-attachment graph
//!    (BRITE's default AS model);
//! 2. every AS owns one *core* router and a small number of *border*
//!    routers; each AS-level link `A→B` is mapped to the router-level
//!    segment sequence `core_A → border_A(B)`, `border_A(B) → border_B(A)`,
//!    `border_B(A) → core_B`;
//! 3. neighbouring ASes are assigned to border routers round-robin, so ASes
//!    with more neighbours than border routers force several AS-level links
//!    to share a `core → border` (or `border → core`) router-level link —
//!    which is exactly what makes them correlated;
//! 4. measurement paths are shortest AS-level routes between stub
//!    (low-degree) vantage ASes;
//! 5. the instance is restricted to the AS-level links actually traversed
//!    by some path, and correlation sets are the connected components of
//!    the "shares a router-level link" relation.

use std::collections::BTreeMap;

use rand::Rng;

use crate::correlation::CorrelationPartition;
use crate::error::TopologyError;
use crate::graph::{LinkId, NodeId, Topology};
use crate::path::PathSet;
use crate::routing::{paths_between_vantage_points, restrict_to_paths};
use crate::TopologyInstance;

use super::random::{barabasi_albert_edges, sample_distinct};

/// Configuration of the BRITE-style generator.
#[derive(Debug, Clone, Copy)]
pub struct BriteConfig {
    /// Number of autonomous systems (nodes of the AS-level graph).
    pub num_ases: usize,
    /// Barabási–Albert attachment parameter: how many existing ASes each
    /// new AS connects to.
    pub links_per_new_as: usize,
    /// Routers per AS: one core router plus `routers_per_as - 1` border
    /// routers. Fewer border routers ⇒ more sharing ⇒ larger correlation
    /// sets.
    pub routers_per_as: usize,
    /// Number of vantage ASes (stub ASes hosting measurement end-points).
    pub num_vantage: usize,
    /// Number of measurement paths to generate (the paper uses 1500).
    pub target_paths: usize,
}

impl Default for BriteConfig {
    fn default() -> Self {
        BriteConfig {
            num_ases: 110,
            links_per_new_as: 2,
            routers_per_as: 3,
            num_vantage: 40,
            target_paths: 1500,
        }
    }
}

impl BriteConfig {
    /// A small configuration used by unit tests and quick examples.
    pub fn small() -> Self {
        BriteConfig {
            num_ases: 30,
            links_per_new_as: 2,
            routers_per_as: 3,
            num_vantage: 12,
            target_paths: 120,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.num_ases < self.links_per_new_as + 1 {
            return Err(TopologyError::InvalidConfig(format!(
                "num_ases ({}) must exceed links_per_new_as ({})",
                self.num_ases, self.links_per_new_as
            )));
        }
        if self.links_per_new_as == 0 {
            return Err(TopologyError::InvalidConfig(
                "links_per_new_as must be at least 1".to_string(),
            ));
        }
        if self.routers_per_as < 2 {
            return Err(TopologyError::InvalidConfig(
                "routers_per_as must be at least 2 (one core + one border)".to_string(),
            ));
        }
        if self.num_vantage < 2 {
            return Err(TopologyError::InvalidConfig(
                "need at least two vantage ASes".to_string(),
            ));
        }
        if self.num_vantage > self.num_ases {
            return Err(TopologyError::InvalidConfig(format!(
                "num_vantage ({}) exceeds num_ases ({})",
                self.num_vantage, self.num_ases
            )));
        }
        if self.target_paths == 0 {
            return Err(TopologyError::InvalidConfig(
                "target_paths must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// The output of the BRITE-style generator: the AS-level instance plus the
/// hidden router-level mapping that induced its correlation structure.
#[derive(Debug, Clone)]
pub struct BriteTopology {
    /// The AS-level instance (graph, paths, correlation sets) seen by the
    /// tomography algorithms.
    pub instance: TopologyInstance,
    /// For each AS-level link (indexed by [`LinkId`]), the router-level
    /// links it traverses (dense indices `0..num_router_links`).
    pub router_links: Vec<Vec<usize>>,
    /// Total number of distinct router-level links referenced by
    /// `router_links`.
    pub num_router_links: usize,
}

/// A directed router-level link, identified by its endpoint router ids.
/// Router ids are `(as_index, router_index_within_as)` with router index 0
/// being the core router.
type RouterLink = ((usize, usize), (usize, usize));

/// Generates a BRITE-style topology.
pub fn generate(config: &BriteConfig, rng: &mut impl Rng) -> Result<BriteTopology, TopologyError> {
    config.validate()?;

    // 1. AS-level undirected adjacency via preferential attachment.
    let as_edges = barabasi_albert_edges(rng, config.num_ases, config.links_per_new_as)?;

    // Adjacency lists (used for border-router assignment).
    let mut neighbours: Vec<Vec<usize>> = vec![Vec::new(); config.num_ases];
    for &(a, b) in &as_edges {
        neighbours[a].push(b);
        neighbours[b].push(a);
    }

    // 2. Build the full (unrestricted) AS-level directed graph.
    let mut full = Topology::new();
    for i in 0..config.num_ases {
        full.add_node(format!("AS{}", i + 1));
    }
    // For every directed AS-level link, the router-level segments it uses.
    let mut full_router_links: Vec<Vec<RouterLink>> = Vec::new();
    let num_border = config.routers_per_as - 1;
    let border_of = |as_idx: usize, neighbour: usize| -> usize {
        // Round-robin assignment of neighbours to border routers, by the
        // neighbour's position in the adjacency list.
        let pos = neighbours[as_idx]
            .iter()
            .position(|&n| n == neighbour)
            .expect("neighbour present in adjacency list");
        1 + (pos % num_border)
    };
    for &(a, b) in &as_edges {
        for (src, dst) in [(a, b), (b, a)] {
            let link = full.add_link(NodeId(src), NodeId(dst))?;
            debug_assert_eq!(link.index(), full_router_links.len());
            let src_border = border_of(src, dst);
            let dst_border = border_of(dst, src);
            full_router_links.push(vec![
                ((src, 0), (src, src_border)),
                ((src, src_border), (dst, dst_border)),
                ((dst, dst_border), (dst, 0)),
            ]);
        }
    }

    // 3. Vantage ASes: stub ASes (lowest degree), deterministic tie-break
    // by index, then paths between randomly chosen ordered vantage pairs.
    let mut by_degree: Vec<usize> = (0..config.num_ases).collect();
    by_degree.sort_by_key(|&i| (neighbours[i].len(), i));
    let vantage: Vec<NodeId> = by_degree
        .iter()
        .take(config.num_vantage)
        .map(|&i| NodeId(i))
        .collect();

    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for &s in &vantage {
        for &t in &vantage {
            if s != t {
                pairs.push((s, t));
            }
        }
    }
    // Randomise the order in which pairs are considered so different seeds
    // exercise different path mixes.
    let order = sample_distinct(rng, pairs.len(), pairs.len());
    let shuffled: Vec<(NodeId, NodeId)> = order.into_iter().map(|i| pairs[i]).collect();
    let path_links = paths_between_vantage_points(&full, &shuffled, config.target_paths);
    if path_links.is_empty() {
        return Err(TopologyError::InvalidConfig(
            "no measurement paths could be generated".to_string(),
        ));
    }

    // 4. Restrict to the links actually used by paths.
    let restricted = restrict_to_paths(&full, &path_links)?;
    let paths = PathSet::new(&restricted.topology, restricted.path_links.clone())?;

    // Re-intern the router-level links of the surviving AS-level links.
    let mut segment_index: BTreeMap<RouterLink, usize> = BTreeMap::new();
    let mut router_links: Vec<Vec<usize>> = Vec::with_capacity(restricted.new_to_old.len());
    for &old in &restricted.new_to_old {
        let mut segments = Vec::with_capacity(3);
        for &seg in &full_router_links[old.index()] {
            let next = segment_index.len();
            let idx = *segment_index.entry(seg).or_insert(next);
            segments.push(idx);
        }
        router_links.push(segments);
    }
    let num_router_links = segment_index.len();

    // 5. Correlation sets: connected components of the "shares a
    // router-level link" relation.
    let correlation = correlation_from_sharing(&router_links, num_router_links)?;

    let instance = TopologyInstance::new(restricted.topology, paths, correlation)?;
    Ok(BriteTopology {
        instance,
        router_links,
        num_router_links,
    })
}

/// Builds the correlation partition whose sets are the connected components
/// of the link-sharing relation induced by `router_links`.
fn correlation_from_sharing(
    router_links: &[Vec<usize>],
    num_router_links: usize,
) -> Result<CorrelationPartition, TopologyError> {
    let num_links = router_links.len();
    // Union-find over AS-level links.
    let mut parent: Vec<usize> = (0..num_links).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    // Group AS-level links by the router-level links they traverse.
    let mut users: Vec<Vec<usize>> = vec![Vec::new(); num_router_links];
    for (link, segments) in router_links.iter().enumerate() {
        for &seg in segments {
            users[seg].push(link);
        }
    }
    for group in &users {
        for w in group.windows(2) {
            let a = find(&mut parent, w[0]);
            let b = find(&mut parent, w[1]);
            if a != b {
                parent[a.max(b)] = a.min(b);
            }
        }
    }
    let mut sets_by_root: BTreeMap<usize, Vec<LinkId>> = BTreeMap::new();
    for link in 0..num_links {
        let root = find(&mut parent, link);
        sets_by_root.entry(root).or_default().push(LinkId(link));
    }
    CorrelationPartition::from_sets(num_links, sets_by_root.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Whether two AS-level links share at least one router-level link
    /// (they are genuinely correlated in the hidden substrate).
    fn shares_router_link(brite: &BriteTopology, a: LinkId, b: LinkId) -> bool {
        brite.router_links[a.index()]
            .iter()
            .any(|seg| brite.router_links[b.index()].contains(seg))
    }

    #[test]
    fn small_config_generates_a_consistent_instance() {
        let mut rng = StdRng::seed_from_u64(42);
        let brite = generate(&BriteConfig::small(), &mut rng).unwrap();
        let inst = &brite.instance;
        inst.validate().unwrap();
        assert!(inst.num_paths() > 0);
        assert!(inst.num_paths() <= BriteConfig::small().target_paths);
        assert!(inst.num_links() > 0);
        assert_eq!(brite.router_links.len(), inst.num_links());
        // Every AS-level link maps to exactly three router-level segments.
        assert!(brite.router_links.iter().all(|segs| segs.len() == 3));
        assert!(brite.num_router_links > 0);
    }

    #[test]
    fn correlation_sets_match_router_level_sharing() {
        let mut rng = StdRng::seed_from_u64(7);
        let brite = generate(&BriteConfig::small(), &mut rng).unwrap();
        let inst = &brite.instance;
        // Any two links that share a router-level link must be in the same
        // correlation set.
        for a in inst.topology.link_ids() {
            for b in inst.topology.link_ids() {
                if a == b {
                    continue;
                }
                if shares_router_link(&brite, a, b) {
                    assert_eq!(
                        inst.correlation.set_of(a),
                        inst.correlation.set_of(b),
                        "links {a} and {b} share a router link but are in different sets"
                    );
                }
            }
        }
        // There must be some genuine correlation in the generated topology
        // (that is the whole point of the scenario).
        let correlated_pairs = inst
            .topology
            .link_ids()
            .flat_map(|a| inst.topology.link_ids().map(move |b| (a, b)))
            .filter(|&(a, b)| a < b && shares_router_link(&brite, a, b))
            .count();
        assert!(correlated_pairs > 0, "expected some correlated link pairs");
    }

    #[test]
    fn correlation_sets_are_no_finer_than_sharing_components() {
        // Links in the same correlation set are connected through a chain
        // of sharing relations; verify for a generated instance by checking
        // that singleton sets never share and multi-link sets contain at
        // least one sharing pair.
        let mut rng = StdRng::seed_from_u64(9);
        let brite = generate(&BriteConfig::small(), &mut rng).unwrap();
        let inst = &brite.instance;
        for (_, links) in inst.correlation.sets() {
            if links.len() < 2 {
                continue;
            }
            let has_sharing_pair = links.iter().any(|&a| {
                links
                    .iter()
                    .any(|&b| a != b && shares_router_link(&brite, a, b))
            });
            assert!(has_sharing_pair, "multi-link set without any sharing pair");
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(&BriteConfig::small(), &mut StdRng::seed_from_u64(5)).unwrap();
        let b = generate(&BriteConfig::small(), &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a.instance.num_links(), b.instance.num_links());
        assert_eq!(a.instance.num_paths(), b.instance.num_paths());
        assert_eq!(a.router_links, b.router_links);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = BriteConfig::small();
        c.routers_per_as = 1;
        assert!(generate(&c, &mut rng).is_err());
        let mut c = BriteConfig::small();
        c.num_vantage = 1;
        assert!(generate(&c, &mut rng).is_err());
        let mut c = BriteConfig::small();
        c.num_vantage = c.num_ases + 1;
        assert!(generate(&c, &mut rng).is_err());
        let mut c = BriteConfig::small();
        c.target_paths = 0;
        assert!(generate(&c, &mut rng).is_err());
        let mut c = BriteConfig::small();
        c.num_ases = 2;
        assert!(generate(&c, &mut rng).is_err());
    }

    #[test]
    fn default_config_is_paper_scale() {
        let c = BriteConfig::default();
        assert_eq!(c.target_paths, 1500);
        assert!(c.validate().is_ok());
    }
}
