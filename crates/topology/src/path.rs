//! Paths and the path-coverage function ψ.
//!
//! A *path* is a sequence of links whose congestion status can be observed
//! through end-to-end measurements (Section 2.1). Paths never cross the
//! same link twice and every link of the topology must participate in at
//! least one path.
//!
//! The *path coverage* function ψ maps a set of links `A ⊆ E` to the set of
//! paths that traverse at least one link of `A` (Equation 1 of the paper).
//! Coverage signatures are the central object of the identifiability
//! analysis: Assumption 4 requires that no two correlation subsets have the
//! same coverage.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

use crate::error::TopologyError;
use crate::graph::{LinkId, NodeId, Topology};

/// Identifier of a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PathId(pub usize);

impl PathId {
    /// The raw index of the path.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0 + 1)
    }
}

/// An end-to-end measurement path: an ordered, loop-free sequence of links.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    /// The path's identifier.
    pub id: PathId,
    /// The links traversed, in order.
    pub links: Vec<LinkId>,
}

impl Path {
    /// Number of links traversed (the `d` in the path congestion threshold
    /// `t_p = 1 − (1 − t_l)^d`).
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the path has no links (never the case for a
    /// validated path).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Returns `true` if the path traverses `link`.
    pub fn traverses(&self, link: LinkId) -> bool {
        self.links.contains(&link)
    }
}

/// The set of measurement paths `P` over a topology, with the link→paths
/// index needed to evaluate the coverage function ψ efficiently.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PathSet {
    paths: Vec<Path>,
    /// For each link (by index), the paths that traverse it.
    link_to_paths: Vec<Vec<PathId>>,
    num_links: usize,
}

impl PathSet {
    /// Builds a path set over a topology from explicit link sequences.
    ///
    /// Each path is validated: it must be non-empty, loop-free (no repeated
    /// link) and contiguous (each link starts at the node where the previous
    /// one ends). In addition, every link of the topology must be traversed
    /// by at least one path, as required by the network model.
    pub fn new(
        topology: &Topology,
        link_sequences: Vec<Vec<LinkId>>,
    ) -> Result<Self, TopologyError> {
        let num_links = topology.num_links();
        let mut paths = Vec::with_capacity(link_sequences.len());
        let mut link_to_paths: Vec<Vec<PathId>> = vec![Vec::new(); num_links];

        for (i, links) in link_sequences.into_iter().enumerate() {
            let id = PathId(i);
            if links.is_empty() {
                return Err(TopologyError::EmptyPath);
            }
            let mut seen = BTreeSet::new();
            for &l in &links {
                if l.index() >= num_links {
                    return Err(TopologyError::UnknownLink(l));
                }
                if !seen.insert(l) {
                    return Err(TopologyError::PathHasLoop(l));
                }
            }
            for pair in links.windows(2) {
                let prev = topology.link(pair[0]);
                let next = topology.link(pair[1]);
                if prev.target != next.source {
                    return Err(TopologyError::PathNotContiguous {
                        previous: pair[0],
                        next: pair[1],
                    });
                }
            }
            for &l in &links {
                link_to_paths[l.index()].push(id);
            }
            paths.push(Path { id, links });
        }

        for (idx, covering) in link_to_paths.iter().enumerate() {
            if covering.is_empty() {
                return Err(TopologyError::UnusedLink(LinkId(idx)));
            }
        }

        Ok(PathSet {
            paths,
            link_to_paths,
            num_links,
        })
    }

    /// Number of paths `|P|`.
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Number of links `|E|` of the underlying topology.
    pub fn num_links(&self) -> usize {
        self.num_links
    }

    /// Returns the path with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn path(&self, id: PathId) -> &Path {
        &self.paths[id.index()]
    }

    /// Iterates over all paths.
    pub fn paths(&self) -> impl Iterator<Item = &Path> {
        self.paths.iter()
    }

    /// The paths that traverse `link` (ψ({link})).
    ///
    /// # Panics
    ///
    /// Panics if the link id is out of range.
    pub fn paths_through(&self, link: LinkId) -> &[PathId] {
        &self.link_to_paths[link.index()]
    }

    /// The coverage function ψ(A): the set of paths that traverse at least
    /// one link of `A` (Equation 1).
    pub fn coverage(&self, links: &[LinkId]) -> BTreeSet<PathId> {
        let mut covered = BTreeSet::new();
        for &l in links {
            covered.extend(self.paths_through(l).iter().copied());
        }
        covered
    }

    /// The source node of a path (the source of its first link).
    pub fn source(&self, topology: &Topology, id: PathId) -> NodeId {
        topology.link(self.path(id).links[0]).source
    }

    /// The destination node of a path (the target of its last link).
    pub fn destination(&self, topology: &Topology, id: PathId) -> NodeId {
        topology
            .link(*self.path(id).links.last().expect("paths are non-empty"))
            .target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the topology of Figure 1(a) by hand (the canonical fixture
    /// for this module; the `toy` module re-exposes it publicly).
    fn fig1a() -> (Topology, PathSet) {
        let mut t = Topology::new();
        let v = t.add_nodes(5); // v1..v5
        let e1 = t.add_link(v[2], v[0]).unwrap(); // v3 -> v1
        let e2 = t.add_link(v[2], v[1]).unwrap(); // v3 -> v2
        let e3 = t.add_link(v[3], v[2]).unwrap(); // v4 -> v3
        let e4 = t.add_link(v[4], v[2]).unwrap(); // v5 -> v3
        let paths = PathSet::new(&t, vec![vec![e3, e1], vec![e3, e2], vec![e4, e2]]).unwrap();
        (t, paths)
    }

    #[test]
    fn coverage_matches_paper_table_for_fig_1a() {
        let (_t, ps) = fig1a();
        let p = |i: usize| PathId(i);
        // ψ({e1}) = {P1}
        assert_eq!(ps.coverage(&[LinkId(0)]), BTreeSet::from([p(0)]));
        // ψ({e2}) = {P2, P3}
        assert_eq!(ps.coverage(&[LinkId(1)]), BTreeSet::from([p(1), p(2)]));
        // ψ({e1, e2}) = {P1, P2, P3}
        assert_eq!(
            ps.coverage(&[LinkId(0), LinkId(1)]),
            BTreeSet::from([p(0), p(1), p(2)])
        );
        // ψ({e3}) = {P1, P2}
        assert_eq!(ps.coverage(&[LinkId(2)]), BTreeSet::from([p(0), p(1)]));
        // ψ({e4}) = {P3}
        assert_eq!(ps.coverage(&[LinkId(3)]), BTreeSet::from([p(2)]));
    }

    #[test]
    fn coverage_size_counts_paths() {
        let (_t, ps) = fig1a();
        assert_eq!(ps.coverage(&[LinkId(0), LinkId(1)]).len(), 3);
        assert_eq!(ps.coverage(&[]).len(), 0);
    }

    #[test]
    fn path_endpoints_are_derived_from_links() {
        let (t, ps) = fig1a();
        assert_eq!(ps.source(&t, PathId(0)), NodeId(3)); // v4
        assert_eq!(ps.destination(&t, PathId(0)), NodeId(0)); // v1
        assert_eq!(ps.source(&t, PathId(2)), NodeId(4)); // v5
        assert_eq!(ps.destination(&t, PathId(2)), NodeId(1)); // v2
    }

    #[test]
    fn rejects_empty_paths() {
        let mut t = Topology::new();
        let v = t.add_nodes(2);
        t.add_link(v[0], v[1]).unwrap();
        let err = PathSet::new(&t, vec![vec![]]).unwrap_err();
        assert_eq!(err, TopologyError::EmptyPath);
    }

    #[test]
    fn rejects_paths_with_loops() {
        let mut t = Topology::new();
        let v = t.add_nodes(2);
        let a = t.add_link(v[0], v[1]).unwrap();
        let _b = t.add_link(v[1], v[0]).unwrap();
        let err = PathSet::new(&t, vec![vec![a, LinkId(1), a]]).unwrap_err();
        assert_eq!(err, TopologyError::PathHasLoop(a));
    }

    #[test]
    fn rejects_non_contiguous_paths() {
        let mut t = Topology::new();
        let v = t.add_nodes(4);
        let a = t.add_link(v[0], v[1]).unwrap();
        let b = t.add_link(v[2], v[3]).unwrap();
        let err = PathSet::new(&t, vec![vec![a, b], vec![b, a]]).unwrap_err();
        assert!(matches!(err, TopologyError::PathNotContiguous { .. }));
    }

    #[test]
    fn rejects_unused_links() {
        let mut t = Topology::new();
        let v = t.add_nodes(3);
        let a = t.add_link(v[0], v[1]).unwrap();
        let _unused = t.add_link(v[1], v[2]).unwrap();
        let err = PathSet::new(&t, vec![vec![a]]).unwrap_err();
        assert_eq!(err, TopologyError::UnusedLink(LinkId(1)));
    }

    #[test]
    fn rejects_unknown_links() {
        let mut t = Topology::new();
        let v = t.add_nodes(2);
        t.add_link(v[0], v[1]).unwrap();
        let err = PathSet::new(&t, vec![vec![LinkId(7)]]).unwrap_err();
        assert_eq!(err, TopologyError::UnknownLink(LinkId(7)));
    }

    #[test]
    fn paths_through_link_index_is_consistent_with_traverses() {
        let (_t, ps) = fig1a();
        for link in (0..ps.num_links()).map(LinkId) {
            for pid in (0..ps.num_paths()).map(PathId) {
                let indexed = ps.paths_through(link).contains(&pid);
                let scanned = ps.path(pid).traverses(link);
                assert_eq!(indexed, scanned, "link {link}, path {pid}");
            }
        }
    }

    #[test]
    fn display_of_path_ids() {
        assert_eq!(PathId(0).to_string(), "P1");
        assert_eq!(PathId(2).to_string(), "P3");
    }
}
