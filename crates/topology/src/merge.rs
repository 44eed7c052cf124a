//! The merging transformation of Section 3.3.
//!
//! When Assumption 4 fails because an intermediate node `v` has all its
//! ingress links in one correlation set and all its egress links in one
//! correlation set, the two correlation subsets formed by those link groups
//! cover exactly the same paths and cannot be told apart. The paper's
//! remedy is a topology transformation: remove `v` and its adjacent links,
//! and for every path that went consecutively through `v_last → v → v_next`
//! draw a *merged link* from `v_last` to `v_next`. Tomography then works on
//! the transformed graph, at the cost of granularity — it characterises the
//! merged links rather than the original ones.
//!
//! [`merge_indistinguishable`] applies the transformation repeatedly until
//! no more candidate nodes remain, and returns the transformed
//! [`TopologyInstance`] together with the mapping from each transformed
//! link to the original links it is composed of.

use std::collections::BTreeSet;

use crate::correlation::CorrelationPartition;
use crate::graph::{LinkId, NodeId, Topology};
use crate::path::PathSet;
use crate::{TopologyError, TopologyInstance};

/// The result of the merging transformation.
#[derive(Debug, Clone)]
pub struct MergeResult {
    /// The transformed instance (same node set — removed nodes simply
    /// become isolated — new link set, rewritten paths, updated correlation
    /// partition).
    pub instance: TopologyInstance,
    /// For each link of the transformed instance (indexed by its
    /// [`LinkId`]), the sorted original links it is composed of. A link
    /// that was not merged maps to a single-element vector containing its
    /// original id.
    pub merged_from: Vec<Vec<LinkId>>,
    /// The intermediate nodes that were removed, in removal order.
    pub removed_nodes: Vec<NodeId>,
    /// Number of node-removal rounds performed.
    pub rounds: usize,
}

/// Internal working representation of a link during merging.
#[derive(Debug, Clone)]
struct WorkLink {
    source: NodeId,
    target: NodeId,
    /// Original links composing this (possibly merged) link.
    original: BTreeSet<LinkId>,
    /// Correlation group: an index into the union-find structure over the
    /// original correlation sets.
    group: usize,
}

/// Union-find over correlation-set indices.
#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Applies the merging transformation until no candidate node remains.
pub fn merge_indistinguishable(instance: &TopologyInstance) -> Result<MergeResult, TopologyError> {
    instance.validate()?;

    // Working copies.
    let mut links: Vec<WorkLink> = instance
        .topology
        .links()
        .map(|l| WorkLink {
            source: l.source,
            target: l.target,
            original: BTreeSet::from([l.id]),
            group: instance.correlation.set_of(l.id).index(),
        })
        .collect();
    let mut paths: Vec<Vec<usize>> = instance
        .paths
        .paths()
        .map(|p| p.links.iter().map(|l| l.index()).collect())
        .collect();
    let mut groups = UnionFind::new(instance.correlation.num_sets());
    let mut removed_nodes = Vec::new();
    let mut rounds = 0;

    loop {
        let candidate = find_candidate_node(instance, &links, &paths, &mut groups, &removed_nodes);
        let Some(node) = candidate else { break };
        merge_around_node(node, &mut links, &mut paths, &mut groups);
        removed_nodes.push(node);
        rounds += 1;
        if rounds > instance.topology.num_nodes() {
            return Err(TopologyError::Inconsistent(
                "merging did not terminate within |V| rounds".to_string(),
            ));
        }
    }

    // Rebuild a dense instance from the working representation. Links that
    // no longer appear on any path are dropped (the model requires every
    // link to be covered by a path).
    let mut used: Vec<bool> = vec![false; links.len()];
    for path in &paths {
        for &l in path {
            used[l] = true;
        }
    }
    let mut topology = Topology::new();
    for node in instance.topology.nodes() {
        topology.add_node(node.name.clone());
    }
    let mut work_to_new: Vec<Option<LinkId>> = vec![None; links.len()];
    let mut merged_from: Vec<Vec<LinkId>> = Vec::new();
    let mut group_of_new: Vec<usize> = Vec::new();
    for (idx, link) in links.iter().enumerate() {
        if !used[idx] {
            continue;
        }
        let new_id = topology.add_link(link.source, link.target)?;
        work_to_new[idx] = Some(new_id);
        merged_from.push(link.original.iter().copied().collect());
        group_of_new.push(groups.find(link.group));
    }
    let path_links: Vec<Vec<LinkId>> = paths
        .iter()
        .map(|p| {
            p.iter()
                .map(|&l| work_to_new[l].expect("used links have new ids"))
                .collect()
        })
        .collect();
    let path_set = PathSet::new(&topology, path_links)?;

    // Correlation partition: one set per surviving union-find root.
    let mut roots: Vec<usize> = group_of_new.clone();
    roots.sort_unstable();
    roots.dedup();
    let sets: Vec<Vec<LinkId>> = roots
        .iter()
        .map(|&root| {
            group_of_new
                .iter()
                .enumerate()
                .filter(|&(_, &g)| g == root)
                .map(|(i, _)| LinkId(i))
                .collect()
        })
        .collect();
    let correlation = CorrelationPartition::from_sets(topology.num_links(), sets)?;

    let merged_instance = TopologyInstance::new(topology, path_set, correlation)?;
    Ok(MergeResult {
        instance: merged_instance,
        merged_from,
        removed_nodes,
        rounds,
    })
}

/// Finds an intermediate node whose ingress links (in the working link set)
/// all belong to one correlation group and whose egress links all belong to
/// one correlation group, and which is not the endpoint of any path.
fn find_candidate_node(
    instance: &TopologyInstance,
    links: &[WorkLink],
    paths: &[Vec<usize>],
    groups: &mut UnionFind,
    removed: &[NodeId],
) -> Option<NodeId> {
    // Which links are still on some path (only those matter).
    let mut used: Vec<bool> = vec![false; links.len()];
    for path in paths {
        for &l in path {
            used[l] = true;
        }
    }
    // Nodes that are endpoints of some path cannot be removed.
    let mut is_endpoint = vec![false; instance.topology.num_nodes()];
    for path in paths {
        if path.is_empty() {
            continue;
        }
        is_endpoint[links[path[0]].source.index()] = true;
        is_endpoint[links[*path.last().expect("non-empty")].target.index()] = true;
    }

    for node in instance.topology.node_ids() {
        if removed.contains(&node) || is_endpoint[node.index()] {
            continue;
        }
        let ingress: Vec<usize> = (0..links.len())
            .filter(|&i| used[i] && links[i].target == node)
            .collect();
        let egress: Vec<usize> = (0..links.len())
            .filter(|&i| used[i] && links[i].source == node)
            .collect();
        if ingress.is_empty() || egress.is_empty() {
            continue;
        }
        let ingress_groups: BTreeSet<usize> = ingress
            .iter()
            .map(|&i| groups.find(links[i].group))
            .collect();
        let egress_groups: BTreeSet<usize> = egress
            .iter()
            .map(|&i| groups.find(links[i].group))
            .collect();
        if ingress_groups.len() == 1 && egress_groups.len() == 1 {
            return Some(node);
        }
    }
    None
}

/// Removes `node` from the working representation: every consecutive pair
/// (ingress link, egress link) that some path uses through `node` becomes a
/// merged link, and the paths are rewritten.
fn merge_around_node(
    node: NodeId,
    links: &mut Vec<WorkLink>,
    paths: &mut [Vec<usize>],
    groups: &mut UnionFind,
) {
    // Collect the distinct (ingress, egress) pairs used by paths through
    // the node, in deterministic order of first appearance.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for path in paths.iter() {
        for w in path.windows(2) {
            if links[w[0]].target == node {
                let pair = (w[0], w[1]);
                if !pairs.contains(&pair) {
                    pairs.push(pair);
                }
            }
        }
    }
    if pairs.is_empty() {
        return;
    }
    // Unite the ingress and egress correlation groups.
    let (a0, b0) = pairs[0];
    let ga = groups.find(links[a0].group);
    let gb = groups.find(links[b0].group);
    groups.union(ga, gb);
    let merged_group = groups.find(ga);

    // Create one merged link per pair.
    let mut pair_to_merged: Vec<((usize, usize), usize)> = Vec::with_capacity(pairs.len());
    for &(a, b) in &pairs {
        let merged = WorkLink {
            source: links[a].source,
            target: links[b].target,
            original: links[a]
                .original
                .union(&links[b].original)
                .copied()
                .collect(),
            group: merged_group,
        };
        links.push(merged);
        pair_to_merged.push(((a, b), links.len() - 1));
    }

    // Rewrite the paths: replace every (a, b) pair through the node by its
    // merged link.
    for path in paths.iter_mut() {
        let mut rewritten = Vec::with_capacity(path.len());
        let mut i = 0;
        while i < path.len() {
            if i + 1 < path.len() && links[path[i]].target == node {
                let pair = (path[i], path[i + 1]);
                let merged = pair_to_merged
                    .iter()
                    .find(|(p, _)| *p == pair)
                    .map(|&(_, m)| m)
                    .expect("every pair through the node was registered");
                rewritten.push(merged);
                i += 2;
            } else {
                rewritten.push(path[i]);
                i += 1;
            }
        }
        *path = rewritten;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identifiability::{check_identifiability, IdentifiabilityConfig};
    use crate::toy;

    #[test]
    fn figure_1a_is_untouched() {
        let inst = toy::figure_1a();
        let result = merge_indistinguishable(&inst).unwrap();
        assert!(result.removed_nodes.is_empty());
        assert_eq!(result.instance.num_links(), 4);
        assert_eq!(result.instance.num_paths(), 3);
        assert_eq!(result.rounds, 0);
    }

    #[test]
    fn figure_1b_merges_into_two_links_in_one_set() {
        // The paper: remove v3 and its adjacent links (e1, e2, e3) and draw
        // two merged links, v4→v1 and v4→v2; they form a single correlation
        // set.
        let inst = toy::figure_1b();
        let result = merge_indistinguishable(&inst).unwrap();
        assert!(!result.removed_nodes.is_empty());
        assert_eq!(result.removed_nodes, vec![NodeId(2)]); // v3
        let merged = &result.instance;
        assert_eq!(merged.num_links(), 2);
        assert_eq!(merged.num_paths(), 2);
        assert_eq!(merged.num_correlation_sets(), 1);
        // Each merged link is composed of two original links, both
        // containing e3 (LinkId 2).
        for composition in &result.merged_from {
            assert_eq!(composition.len(), 2);
            assert!(composition.contains(&LinkId(2)));
        }
        // Endpoints are v4→v1 and v4→v2.
        let endpoints: Vec<(usize, usize)> = merged
            .topology
            .links()
            .map(|l| (l.source.index(), l.target.index()))
            .collect();
        assert!(endpoints.contains(&(3, 0)));
        assert!(endpoints.contains(&(3, 1)));
        // After the transformation, Assumption 4 holds on the merged graph.
        let report = check_identifiability(merged, IdentifiabilityConfig::default());
        assert!(report.holds, "conflicts: {:?}", report.conflicts);
    }

    #[test]
    fn figure_1a_single_set_collapses_to_one_link_per_path() {
        // Section 3.3: with all four links in one correlation set, the
        // transformation removes v3 and leaves one merged link per
        // end-to-end path (v4→v1, v4→v2, v5→v2).
        let inst = toy::figure_1a_single_set();
        let result = merge_indistinguishable(&inst).unwrap();
        assert_eq!(result.removed_nodes, vec![NodeId(2)]); // v3
        let merged = &result.instance;
        assert_eq!(merged.num_links(), 3);
        assert_eq!(merged.num_paths(), 3);
        // Every path is now a single link.
        for path in merged.paths.paths() {
            assert_eq!(path.len(), 1);
        }
        let endpoints: Vec<(usize, usize)> = merged
            .topology
            .links()
            .map(|l| (l.source.index(), l.target.index()))
            .collect();
        assert!(endpoints.contains(&(3, 0)));
        assert!(endpoints.contains(&(3, 1)));
        assert!(endpoints.contains(&(4, 1)));
    }

    #[test]
    fn merging_a_longer_chain_terminates_and_validates() {
        // A chain v1 -> v2 -> v3 -> v4 with one path across it and all
        // links in one correlation set: both intermediate nodes get merged
        // and a single link from v1 to v4 remains.
        let mut t = Topology::new();
        let v = t.add_nodes(4);
        let a = t.add_link(v[0], v[1]).unwrap();
        let b = t.add_link(v[1], v[2]).unwrap();
        let c = t.add_link(v[2], v[3]).unwrap();
        let paths = PathSet::new(&t, vec![vec![a, b, c]]).unwrap();
        let corr = CorrelationPartition::single_set(3);
        let inst = TopologyInstance::new(t, paths, corr).unwrap();
        let result = merge_indistinguishable(&inst).unwrap();
        assert_eq!(result.instance.num_links(), 1);
        assert_eq!(result.instance.num_paths(), 1);
        assert_eq!(result.instance.paths.path(crate::path::PathId(0)).len(), 1);
        assert_eq!(result.merged_from[0], vec![a, b, c]);
        assert_eq!(result.removed_nodes.len(), 2);
        result.instance.validate().unwrap();
    }

    #[test]
    fn nodes_with_mixed_correlation_sets_are_not_merged() {
        // Same chain as above but each link in its own correlation set:
        // intermediate nodes have ingress and egress in different sets, so
        // by the paper's rule they *are* candidates only when both sides
        // are each within a single set — which is the case here (each side
        // is a single link). The transformation therefore merges them.
        // To get a non-candidate, give an intermediate node two ingress
        // links from different sets.
        let mut t = Topology::new();
        let v = t.add_nodes(4);
        let a = t.add_link(v[0], v[2]).unwrap();
        let b = t.add_link(v[1], v[2]).unwrap();
        let c = t.add_link(v[2], v[3]).unwrap();
        let paths = PathSet::new(&t, vec![vec![a, c], vec![b, c]]).unwrap();
        let corr = CorrelationPartition::singletons(3);
        let inst = TopologyInstance::new(t, paths, corr).unwrap();
        let result = merge_indistinguishable(&inst).unwrap();
        // v3 (index 2) has ingress links a, b in *different* correlation
        // sets, so it is not a candidate and nothing changes.
        assert!(result.removed_nodes.is_empty());
    }
}
