//! Correlation sets and correlation subsets.
//!
//! The paper's model (Section 2.1, "Link Correlation") partitions the link
//! set `E` into *correlation sets* `C = {C_1, ..., C_|C|}`: two links from
//! the same set may be correlated with one another, while links from
//! different sets are guaranteed to be uncorrelated. The operator knows the
//! partition (e.g. "all links of this LAN", "all links of that AS") but not
//! the degree of correlation inside each set.
//!
//! A *correlation subset* is any non-empty subset `A ⊆ C_p` of a
//! correlation set; the set of all correlation subsets is denoted `C̃`.
//! Correlation subsets are the unit of the identifiability analysis
//! (Assumption 4) and of the exact algorithm in the proof of Theorem 1.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::error::TopologyError;
use crate::graph::LinkId;

/// Identifier of a correlation set within a [`CorrelationPartition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CorrelationSetId(pub usize);

impl CorrelationSetId {
    /// The raw index of the correlation set.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CorrelationSetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0 + 1)
    }
}

/// Default limit on the size of a correlation set for exhaustive subset
/// enumeration (2^24 subsets is already ~16 M; anything larger is clearly a
/// job for the practical algorithm, not the exact one).
pub const DEFAULT_SUBSET_ENUMERATION_LIMIT: usize = 20;

/// A partition of the link set into correlation sets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorrelationPartition {
    sets: Vec<Vec<LinkId>>,
    link_to_set: Vec<CorrelationSetId>,
}

impl CorrelationPartition {
    /// Builds a partition from explicit correlation sets.
    ///
    /// Every link `0..num_links` must appear in exactly one set, and sets
    /// must be non-empty. Link ids inside each set are sorted and
    /// de-duplicated representations are rejected (a duplicate makes the
    /// collection not a partition).
    pub fn from_sets(num_links: usize, sets: Vec<Vec<LinkId>>) -> Result<Self, TopologyError> {
        let mut occurrences = vec![0usize; num_links];
        let mut cleaned_sets = Vec::with_capacity(sets.len());
        for set in sets {
            if set.is_empty() {
                return Err(TopologyError::EmptyCorrelationSet);
            }
            let mut s = set;
            s.sort_unstable();
            for &l in &s {
                if l.index() >= num_links {
                    return Err(TopologyError::UnknownLink(l));
                }
                occurrences[l.index()] += 1;
            }
            cleaned_sets.push(s);
        }
        for (idx, &count) in occurrences.iter().enumerate() {
            if count != 1 {
                return Err(TopologyError::NotAPartition {
                    link: LinkId(idx),
                    occurrences: count,
                });
            }
        }
        let mut link_to_set = vec![CorrelationSetId(0); num_links];
        for (set_idx, set) in cleaned_sets.iter().enumerate() {
            for &l in set {
                link_to_set[l.index()] = CorrelationSetId(set_idx);
            }
        }
        Ok(CorrelationPartition {
            sets: cleaned_sets,
            link_to_set,
        })
    }

    /// The partition in which every link is its own correlation set, i.e.
    /// the classical "all links are independent" model.
    pub fn singletons(num_links: usize) -> Self {
        CorrelationPartition {
            sets: (0..num_links).map(|i| vec![LinkId(i)]).collect(),
            link_to_set: (0..num_links).map(CorrelationSetId).collect(),
        }
    }

    /// The partition in which all links belong to a single correlation set
    /// (the "everything may be correlated" extreme discussed in
    /// Section 3.3).
    pub fn single_set(num_links: usize) -> Self {
        CorrelationPartition {
            sets: vec![(0..num_links).map(LinkId).collect()],
            link_to_set: vec![CorrelationSetId(0); num_links],
        }
    }

    /// Number of links in the partition.
    pub fn num_links(&self) -> usize {
        self.link_to_set.len()
    }

    /// Number of correlation sets `|C|`.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// The correlation set containing `link`.
    ///
    /// # Panics
    ///
    /// Panics if the link id is out of range.
    pub fn set_of(&self, link: LinkId) -> CorrelationSetId {
        self.link_to_set[link.index()]
    }

    /// The (sorted) links of a correlation set.
    ///
    /// # Panics
    ///
    /// Panics if the set id is out of range.
    pub fn set_links(&self, set: CorrelationSetId) -> &[LinkId] {
        &self.sets[set.index()]
    }

    /// Iterates over `(set id, links)` pairs.
    pub fn sets(&self) -> impl Iterator<Item = (CorrelationSetId, &[LinkId])> {
        self.sets
            .iter()
            .enumerate()
            .map(|(i, s)| (CorrelationSetId(i), s.as_slice()))
    }

    /// Iterates over all correlation set ids.
    pub fn set_ids(&self) -> impl Iterator<Item = CorrelationSetId> {
        (0..self.sets.len()).map(CorrelationSetId)
    }

    /// Size of the largest correlation set.
    pub fn max_set_size(&self) -> usize {
        self.sets.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Returns `true` if the links in `links` are mutually uncorrelated,
    /// i.e. no two distinct links among them belong to the same correlation
    /// set. This is the eligibility test used by the practical algorithm to
    /// select usable paths and path pairs ("paths that do not involve any
    /// correlated links", Section 4).
    pub fn mutually_uncorrelated(&self, links: &[LinkId]) -> bool {
        let mut seen_sets = vec![false; self.num_sets()];
        let mut seen_links = std::collections::BTreeSet::new();
        for &l in links {
            if !seen_links.insert(l) {
                // The same link listed twice (e.g. shared by both paths of a
                // pair) does not make the collection correlated with itself.
                continue;
            }
            let s = self.set_of(l).index();
            if seen_sets[s] {
                return false;
            }
            seen_sets[s] = true;
        }
        true
    }

    /// Enumerates all non-empty subsets of one correlation set.
    ///
    /// Returns an error if the set has more than `limit` links (the number
    /// of subsets is `2^|C_p| − 1`). Subsets are returned in increasing
    /// order of their bitmask over the sorted set links, so the output is
    /// deterministic.
    pub fn subsets_of_set(
        &self,
        set: CorrelationSetId,
        limit: usize,
    ) -> Result<Vec<Vec<LinkId>>, TopologyError> {
        let links = self.set_links(set);
        if links.len() > limit {
            return Err(TopologyError::CorrelationSetTooLarge {
                size: links.len(),
                limit,
            });
        }
        let n = links.len();
        let mut subsets = Vec::with_capacity((1usize << n) - 1);
        for mask in 1u64..(1u64 << n) {
            let mut subset = Vec::with_capacity(mask.count_ones() as usize);
            for (bit, &link) in links.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    subset.push(link);
                }
            }
            subsets.push(subset);
        }
        Ok(subsets)
    }

    /// Enumerates the set of all correlation subsets `C̃` (every non-empty
    /// subset of every correlation set).
    ///
    /// Returns an error if any correlation set exceeds `limit` links.
    pub fn all_correlation_subsets(&self, limit: usize) -> Result<Vec<Vec<LinkId>>, TopologyError> {
        let mut all = Vec::new();
        for set in self.set_ids() {
            all.extend(self.subsets_of_set(set, limit)?);
        }
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1a_partition() -> CorrelationPartition {
        // C = {{e1, e2}, {e3}, {e4}}
        CorrelationPartition::from_sets(
            4,
            vec![vec![LinkId(0), LinkId(1)], vec![LinkId(2)], vec![LinkId(3)]],
        )
        .unwrap()
    }

    #[test]
    fn from_sets_builds_the_expected_partition() {
        let c = fig1a_partition();
        assert_eq!(c.num_links(), 4);
        assert_eq!(c.num_sets(), 3);
        assert_eq!(c.set_of(LinkId(0)), CorrelationSetId(0));
        assert_eq!(c.set_of(LinkId(1)), CorrelationSetId(0));
        assert_eq!(c.set_of(LinkId(2)), CorrelationSetId(1));
        assert_eq!(c.set_of(LinkId(3)), CorrelationSetId(2));
        assert_eq!(c.set_links(CorrelationSetId(0)), &[LinkId(0), LinkId(1)]);
        assert_eq!(c.max_set_size(), 2);
    }

    #[test]
    fn rejects_non_partitions() {
        // Missing link.
        let err =
            CorrelationPartition::from_sets(3, vec![vec![LinkId(0)], vec![LinkId(1)]]).unwrap_err();
        assert_eq!(
            err,
            TopologyError::NotAPartition {
                link: LinkId(2),
                occurrences: 0
            }
        );
        // Duplicated link.
        let err =
            CorrelationPartition::from_sets(2, vec![vec![LinkId(0), LinkId(1)], vec![LinkId(1)]])
                .unwrap_err();
        assert_eq!(
            err,
            TopologyError::NotAPartition {
                link: LinkId(1),
                occurrences: 2
            }
        );
        // Empty set.
        let err = CorrelationPartition::from_sets(1, vec![vec![LinkId(0)], vec![]]).unwrap_err();
        assert_eq!(err, TopologyError::EmptyCorrelationSet);
        // Unknown link.
        let err = CorrelationPartition::from_sets(1, vec![vec![LinkId(5)]]).unwrap_err();
        assert_eq!(err, TopologyError::UnknownLink(LinkId(5)));
    }

    #[test]
    fn singleton_and_single_set_extremes() {
        let singles = CorrelationPartition::singletons(3);
        assert_eq!(singles.num_sets(), 3);
        assert!(singles.mutually_uncorrelated(&[LinkId(0), LinkId(1)]));

        let one = CorrelationPartition::single_set(3);
        assert_eq!(one.num_sets(), 1);
        assert!(!one.mutually_uncorrelated(&[LinkId(0), LinkId(2)]));
        assert!(one.mutually_uncorrelated(&[LinkId(1), LinkId(1)]));
    }

    #[test]
    fn correlation_queries_match_paper_example() {
        let c = fig1a_partition();
        assert_eq!(c.set_of(LinkId(0)), c.set_of(LinkId(1)));
        assert_ne!(c.set_of(LinkId(0)), c.set_of(LinkId(2)));
        assert_eq!(c.set_links(c.set_of(LinkId(0))), [LinkId(0), LinkId(1)]);
        assert_eq!(c.set_links(c.set_of(LinkId(3))), [LinkId(3)]);
    }

    #[test]
    fn mutually_uncorrelated_checks_all_pairs() {
        let c = fig1a_partition();
        // e1, e3: different sets -> uncorrelated.
        assert!(c.mutually_uncorrelated(&[LinkId(0), LinkId(2)]));
        // e1, e2: same set -> correlated.
        assert!(!c.mutually_uncorrelated(&[LinkId(0), LinkId(1)]));
        // A repeated link does not count as a correlated pair.
        assert!(c.mutually_uncorrelated(&[LinkId(2), LinkId(2), LinkId(3)]));
        // The union of P2 = {e3, e2} and P3 = {e4, e2} is fine (e2 repeats).
        assert!(c.mutually_uncorrelated(&[LinkId(2), LinkId(1), LinkId(3), LinkId(1)]));
        // Empty collection is trivially uncorrelated.
        assert!(c.mutually_uncorrelated(&[]));
    }

    #[test]
    fn subset_enumeration_matches_paper_c_tilde() {
        let c = fig1a_partition();
        let all = c
            .all_correlation_subsets(DEFAULT_SUBSET_ENUMERATION_LIMIT)
            .unwrap();
        // C̃ = {{e1}, {e2}, {e1,e2}, {e3}, {e4}}
        assert_eq!(all.len(), 5);
        assert!(all.contains(&vec![LinkId(0)]));
        assert!(all.contains(&vec![LinkId(1)]));
        assert!(all.contains(&vec![LinkId(0), LinkId(1)]));
        assert!(all.contains(&vec![LinkId(2)]));
        assert!(all.contains(&vec![LinkId(3)]));
    }

    #[test]
    fn subset_enumeration_respects_limit() {
        let big = CorrelationPartition::single_set(30);
        assert!(matches!(
            big.all_correlation_subsets(20),
            Err(TopologyError::CorrelationSetTooLarge {
                size: 30,
                limit: 20
            })
        ));
    }

    #[test]
    fn set_iteration_is_ordered() {
        let c = fig1a_partition();
        let ids: Vec<usize> = c.set_ids().map(|s| s.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let sizes: Vec<usize> = c.sets().map(|(_, links)| links.len()).collect();
        assert_eq!(sizes, vec![2, 1, 1]);
        assert_eq!(CorrelationSetId(0).to_string(), "C1");
    }
}
