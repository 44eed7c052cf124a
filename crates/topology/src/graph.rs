//! The network graph: nodes, directed logical links and adjacency.
//!
//! Following Section 2.1 of the paper, the network is a directed graph
//! `G = (V, E)`. Nodes represent network elements that generate, receive or
//! relay traffic (end hosts, switches, routers); each edge represents a
//! *logical* link — not necessarily a physical one, but possibly an IP-level
//! or domain-level link, i.e. a whole sequence of physical links between two
//! network elements. That distinction is exactly what makes link
//! *correlation* possible: two logical links may share underlying physical
//! resources.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::TopologyError;

/// Identifier of a node in the network graph.
///
/// Node ids are dense indices assigned in insertion order, so they can be
/// used directly to index per-node arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Identifier of a directed logical link in the network graph.
///
/// Link ids are dense indices assigned in insertion order, so they can be
/// used directly to index per-link arrays (congestion states, probability
/// vectors, equation columns, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub usize);

impl NodeId {
    /// The raw index of the node.
    pub fn index(self) -> usize {
        self.0
    }
}

impl LinkId {
    /// The raw index of the link.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0 + 1)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0 + 1)
    }
}

/// A node of the network graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// The node's identifier.
    pub id: NodeId,
    /// Human-readable label (used in reports and examples).
    pub name: String,
}

/// A directed logical link between two nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// The link's identifier.
    pub id: LinkId,
    /// Source node.
    pub source: NodeId,
    /// Destination node.
    pub target: NodeId,
}

/// A directed network graph of nodes and logical links.
///
/// The structure is append-only: nodes and links can be added but never
/// removed, which keeps all identifiers stable. Topology *transformations*
/// (such as the merging transformation of Section 3.3) build a brand-new
/// `Topology` and return a mapping from new to old links.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    out_links: Vec<Vec<LinkId>>,
    in_links: Vec<Vec<LinkId>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a node with the given label and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            id,
            name: name.into(),
        });
        self.out_links.push(Vec::new());
        self.in_links.push(Vec::new());
        id
    }

    /// Adds `count` nodes labelled `v1, v2, ...` (continuing from the
    /// current node count) and returns their ids.
    pub fn add_nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count)
            .map(|_| {
                let label = format!("v{}", self.nodes.len() + 1);
                self.add_node(label)
            })
            .collect()
    }

    /// Adds a directed link from `source` to `target` and returns its id.
    ///
    /// Returns an error if either endpoint does not exist or if the link
    /// would be a self-loop.
    pub fn add_link(&mut self, source: NodeId, target: NodeId) -> Result<LinkId, TopologyError> {
        if source.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(source));
        }
        if target.index() >= self.nodes.len() {
            return Err(TopologyError::UnknownNode(target));
        }
        if source == target {
            return Err(TopologyError::SelfLoop(source));
        }
        let id = LinkId(self.links.len());
        self.links.push(Link { id, source, target });
        self.out_links[source.index()].push(id);
        self.in_links[target.index()].push(id);
        Ok(id)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterates over all links.
    pub fn links(&self) -> impl Iterator<Item = &Link> {
        self.links.iter()
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over all link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> {
        (0..self.links.len()).map(LinkId)
    }

    /// Links leaving `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        &self.out_links[node.index()]
    }

    /// Links entering `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn in_links(&self, node: NodeId) -> &[LinkId] {
        &self.in_links[node.index()]
    }

    /// Out-degree plus in-degree of a node.
    pub fn degree(&self, node: NodeId) -> usize {
        self.out_links(node).len() + self.in_links(node).len()
    }

    /// Returns `true` if a node is *intermediate*, i.e. it has at least one
    /// incoming and at least one outgoing link. Intermediate nodes are the
    /// candidates for the merging transformation of Section 3.3.
    pub fn is_intermediate(&self, node: NodeId) -> bool {
        !self.out_links(node).is_empty() && !self.in_links(node).is_empty()
    }

    /// Checks internal consistency (adjacency lists match link endpoints).
    /// Used by tests and by generators as a post-condition.
    pub fn validate(&self) -> Result<(), TopologyError> {
        for link in &self.links {
            if !self.out_links[link.source.index()].contains(&link.id) {
                return Err(TopologyError::Inconsistent(format!(
                    "link {} missing from out-list of {}",
                    link.id, link.source
                )));
            }
            if !self.in_links[link.target.index()].contains(&link.id) {
                return Err(TopologyError::Inconsistent(format!(
                    "link {} missing from in-list of {}",
                    link.id, link.target
                )));
            }
        }
        let adjacency_count: usize = self.out_links.iter().map(Vec::len).sum();
        if adjacency_count != self.links.len() {
            return Err(TopologyError::Inconsistent(format!(
                "{} adjacency entries for {} links",
                adjacency_count,
                self.links.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_topology() -> (Topology, Vec<NodeId>, Vec<LinkId>) {
        let mut t = Topology::new();
        let nodes = t.add_nodes(3);
        let l0 = t.add_link(nodes[0], nodes[1]).unwrap();
        let l1 = t.add_link(nodes[1], nodes[2]).unwrap();
        let l2 = t.add_link(nodes[0], nodes[2]).unwrap();
        (t, nodes, vec![l0, l1, l2])
    }

    #[test]
    fn nodes_and_links_get_dense_ids() {
        let (t, nodes, links) = small_topology();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(links, vec![LinkId(0), LinkId(1), LinkId(2)]);
        assert_eq!(t.node(NodeId(1)).name, "v2");
    }

    #[test]
    fn adjacency_lists_are_maintained() {
        let (t, nodes, links) = small_topology();
        assert_eq!(t.out_links(nodes[0]), &[links[0], links[2]]);
        assert_eq!(t.in_links(nodes[2]), &[links[1], links[2]]);
        assert_eq!(t.degree(nodes[1]), 2);
        assert!(t.is_intermediate(nodes[1]));
        assert!(!t.is_intermediate(nodes[0]));
        assert!(t.validate().is_ok());
    }

    #[test]
    fn rejects_bad_links() {
        let mut t = Topology::new();
        let n = t.add_nodes(2);
        assert!(matches!(
            t.add_link(n[0], n[0]),
            Err(TopologyError::SelfLoop(_))
        ));
        assert!(matches!(
            t.add_link(n[0], NodeId(99)),
            Err(TopologyError::UnknownNode(_))
        ));
        assert!(matches!(
            t.add_link(NodeId(99), n[0]),
            Err(TopologyError::UnknownNode(_))
        ));
    }

    #[test]
    fn parallel_links_are_allowed() {
        // Two domain-level links between the same pair of border routers
        // are legitimate (e.g. two physical circuits), so the graph must
        // accept parallel edges.
        let mut t = Topology::new();
        let n = t.add_nodes(2);
        let a = t.add_link(n[0], n[1]).unwrap();
        let b = t.add_link(n[0], n[1]).unwrap();
        assert_ne!(a, b);
        assert_eq!(t.out_links(n[0]).len(), 2);
    }

    #[test]
    fn display_uses_paper_style_names() {
        assert_eq!(NodeId(0).to_string(), "v1");
        assert_eq!(LinkId(2).to_string(), "e3");
    }

    #[test]
    fn ids_iterate_in_order() {
        let (t, _, _) = small_topology();
        let ids: Vec<usize> = t.link_ids().map(|l| l.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let nids: Vec<usize> = t.node_ids().map(|n| n.index()).collect();
        assert_eq!(nids, vec![0, 1, 2]);
    }
}
