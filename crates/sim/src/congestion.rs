//! Congestion models: how link states are drawn in every snapshot.
//!
//! The paper's model (Section 2.1) treats the congestion status of the
//! links of each correlation set as an arbitrary joint Bernoulli process,
//! independent across correlation sets. Two concrete families are
//! implemented:
//!
//! * [`ExplicitModel`] — each correlation set carries an explicit
//!   block-structured joint distribution: independent links and
//!   all-or-nothing groups of links (links that become congested and
//!   de-congested together, e.g. because they share a flooded physical
//!   resource). Built with [`CongestionModelBuilder`]. Marginals, joint
//!   probabilities and exact per-set state probabilities are available in
//!   closed form, which makes these models the ground truth of the
//!   evaluation.
//! * [`SubstrateModel`] — the BRITE construction: hidden substrate elements
//!   (router-level links) fail independently, and a logical link is
//!   congested iff any substrate element it depends on has failed.
//!   Correlation between logical links emerges from shared substrate
//!   elements.

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use netcorr_topology::correlation::{CorrelationPartition, CorrelationSetId};
use netcorr_topology::graph::LinkId;

use crate::error::SimError;

/// Maximum number of links in a correlation set for which an explicit
/// block-structured distribution may be built (the per-set state is stored
/// as a 64-bit mask).
pub const MAX_EXPLICIT_SET_SIZE: usize = 63;

/// Maximum subset size for which [`SubstrateModel`] computes exact joint
/// probabilities by inclusion–exclusion.
const MAX_INCLUSION_EXCLUSION: usize = 20;

// ---------------------------------------------------------------------------
// Explicit (block-structured) models
// ---------------------------------------------------------------------------

/// One independent component of a correlation set's joint distribution:
/// a group of links that are congested together with probability `prob`
/// and all good otherwise. A single-link block is an independent link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Block {
    /// Mask over the correlation set's (sorted) links.
    mask: u64,
    /// Probability that the whole block is congested.
    prob: f64,
}

/// The joint congestion distribution of one correlation set, structured as
/// independent all-or-nothing blocks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SetBlocks {
    /// The correlation set's links, sorted by id (bit `i` of a mask refers
    /// to `links[i]`).
    links: Vec<LinkId>,
    blocks: Vec<Block>,
}

impl SetBlocks {
    fn bit_of(&self, link: LinkId) -> Option<usize> {
        self.links.iter().position(|&l| l == link)
    }

    fn mask_of(&self, links: &[LinkId]) -> Option<u64> {
        let mut mask = 0u64;
        for &l in links {
            mask |= 1u64 << self.bit_of(l)?;
        }
        Some(mask)
    }

    /// Mask of all links covered by some block (links outside it are
    /// always good).
    fn covered_mask(&self) -> u64 {
        self.blocks.iter().fold(0, |acc, b| acc | b.mask)
    }

    /// Samples the congested subset of this correlation set as a mask.
    fn sample(&self, rng: &mut impl Rng) -> u64 {
        let mut state = 0u64;
        for block in &self.blocks {
            if block.prob > 0.0 && rng.random_bool(block.prob.min(1.0)) {
                state |= block.mask;
            }
        }
        state
    }

    /// `P(S^p = A)`: the probability that exactly the links in `mask` are
    /// congested.
    fn prob_exact(&self, mask: u64) -> f64 {
        // Links outside every block are always good, so a target that
        // includes them has probability zero.
        if mask & !self.covered_mask() != 0 {
            return 0.0;
        }
        let mut prob = 1.0;
        for block in &self.blocks {
            let overlap = block.mask & mask;
            if overlap == block.mask {
                prob *= block.prob;
            } else if overlap == 0 {
                prob *= 1.0 - block.prob;
            } else {
                // The block is all-or-nothing, so a partial overlap is
                // impossible.
                return 0.0;
            }
        }
        prob
    }

    /// `P(A ⊆ S^p)`: the probability that at least the links in `mask` are
    /// congested.
    fn prob_superset(&self, mask: u64) -> f64 {
        if mask & !self.covered_mask() != 0 {
            return 0.0;
        }
        let mut prob = 1.0;
        for block in &self.blocks {
            if block.mask & mask != 0 {
                prob *= block.prob;
            }
        }
        prob
    }
}

/// An explicit, block-structured congestion model over a correlation
/// partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplicitModel {
    partition: CorrelationPartition,
    sets: Vec<SetBlocks>,
    marginals: Vec<f64>,
}

impl ExplicitModel {
    /// The correlation partition the model was built over.
    pub fn partition(&self) -> &CorrelationPartition {
        &self.partition
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.marginals.len()
    }

    /// Ground-truth marginal congestion probability `P(X_{e} = 1)`.
    pub fn marginal(&self, link: LinkId) -> f64 {
        self.marginals[link.index()]
    }

    /// All ground-truth marginals, indexed by link.
    pub fn marginals(&self) -> &[f64] {
        &self.marginals
    }

    /// Samples the congestion state of every link for one snapshot.
    pub fn sample_state(&self, rng: &mut impl Rng) -> Vec<bool> {
        let mut state = vec![false; self.num_links()];
        self.sample_state_into(rng, &mut state);
        state
    }

    /// [`ExplicitModel::sample_state`] into `state`, one entry per link:
    /// the same draws, into a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one entry per link.
    pub fn sample_state_into(&self, rng: &mut impl Rng, state: &mut [bool]) {
        assert_eq!(state.len(), self.num_links(), "one state per link");
        state.fill(false);
        for set in &self.sets {
            let mask = set.sample(rng);
            for (bit, &link) in set.links.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    state[link.index()] = true;
                }
            }
        }
    }

    /// `P(S^p = A)`: the probability that, within correlation set `set`,
    /// exactly the links `links` are congested. Returns `None` if any link
    /// does not belong to the set.
    pub fn set_state_probability(&self, set: CorrelationSetId, links: &[LinkId]) -> Option<f64> {
        let blocks = &self.sets[set.index()];
        let mask = blocks.mask_of(links)?;
        Some(blocks.prob_exact(mask))
    }

    /// Exact joint probability that *all* the given links are congested
    /// (links may span correlation sets; sets are independent).
    pub fn joint_congestion_probability(&self, links: &[LinkId]) -> f64 {
        let mut per_set: std::collections::BTreeMap<CorrelationSetId, Vec<LinkId>> =
            std::collections::BTreeMap::new();
        for &l in links {
            per_set.entry(self.partition.set_of(l)).or_default().push(l);
        }
        per_set
            .iter()
            .map(|(set, set_links)| {
                let blocks = &self.sets[set.index()];
                let mask = blocks
                    .mask_of(set_links)
                    .expect("links grouped by their own set");
                blocks.prob_superset(mask)
            })
            .product()
    }

    /// Probability that every link of correlation set `set` is good,
    /// `P(S^p = ∅)`.
    pub fn prob_set_all_good(&self, set: CorrelationSetId) -> f64 {
        self.sets[set.index()].prob_exact(0)
    }
}

/// Builder for [`ExplicitModel`]s.
///
/// Links that are never mentioned default to "always good" (congestion
/// probability zero). Validation errors are deferred to
/// [`CongestionModelBuilder::build`] so calls can be chained.
#[derive(Debug, Clone)]
pub struct CongestionModelBuilder {
    partition: CorrelationPartition,
    blocks_per_set: Vec<Vec<(Vec<LinkId>, f64)>>,
    assigned: Vec<bool>,
    pending_error: Option<SimError>,
}

impl CongestionModelBuilder {
    /// Starts a builder over the given correlation partition.
    pub fn new(partition: &CorrelationPartition) -> Self {
        CongestionModelBuilder {
            partition: partition.clone(),
            blocks_per_set: vec![Vec::new(); partition.num_sets()],
            assigned: vec![false; partition.num_links()],
            pending_error: None,
        }
    }

    fn record_error(&mut self, error: SimError) {
        if self.pending_error.is_none() {
            self.pending_error = Some(error);
        }
    }

    fn check_probability(&mut self, p: f64, context: &'static str) -> bool {
        if !(0.0..=1.0).contains(&p) || !p.is_finite() {
            self.record_error(SimError::InvalidProbability { value: p, context });
            false
        } else {
            true
        }
    }

    fn claim_link(&mut self, link: LinkId) -> bool {
        if link.index() >= self.partition.num_links() {
            self.record_error(SimError::UnknownLink(link));
            return false;
        }
        if self.assigned[link.index()] {
            self.record_error(SimError::DuplicateLink(link));
            return false;
        }
        self.assigned[link.index()] = true;
        true
    }

    /// Declares `link` to be congested independently of every other link,
    /// with probability `prob`.
    pub fn independent(mut self, link: LinkId, prob: f64) -> Self {
        if !self.check_probability(prob, "independent link congestion") {
            return self;
        }
        if !self.claim_link(link) {
            return self;
        }
        let set = self.partition.set_of(link);
        self.blocks_per_set[set.index()].push((vec![link], prob));
        self
    }

    /// Declares the given links (which must all belong to the same
    /// correlation set) to be congested *together* with probability `prob`
    /// and all good otherwise.
    pub fn joint_group(mut self, links: &[LinkId], prob: f64) -> Self {
        if !self.check_probability(prob, "joint group congestion") {
            return self;
        }
        if links.is_empty() {
            self.record_error(SimError::EmptyGroup);
            return self;
        }
        // All links must exist before we can query their sets.
        for &l in links {
            if l.index() >= self.partition.num_links() {
                self.record_error(SimError::UnknownLink(l));
                return self;
            }
        }
        let set = self.partition.set_of(links[0]);
        for &l in links {
            if self.partition.set_of(l) != set {
                self.record_error(SimError::GroupSpansCorrelationSets { link: l });
                return self;
            }
        }
        for &l in links {
            if !self.claim_link(l) {
                return self;
            }
        }
        self.blocks_per_set[set.index()].push((links.to_vec(), prob));
        self
    }

    /// Builds the model.
    pub fn build(self) -> Result<CongestionModel, SimError> {
        if let Some(error) = self.pending_error {
            return Err(error);
        }
        let mut sets = Vec::with_capacity(self.partition.num_sets());
        let mut marginals = vec![0.0; self.partition.num_links()];
        for (set_id, set_links) in self.partition.sets() {
            if set_links.len() > MAX_EXPLICIT_SET_SIZE {
                return Err(SimError::SetTooLarge {
                    size: set_links.len(),
                });
            }
            let links: Vec<LinkId> = set_links.to_vec();
            let mut blocks = Vec::new();
            for (group, prob) in &self.blocks_per_set[set_id.index()] {
                let mut mask = 0u64;
                for &l in group {
                    let bit = links
                        .iter()
                        .position(|&x| x == l)
                        .expect("group links belong to this set");
                    mask |= 1 << bit;
                    marginals[l.index()] = *prob;
                }
                blocks.push(Block { mask, prob: *prob });
            }
            sets.push(SetBlocks { links, blocks });
        }
        Ok(CongestionModel::Explicit(ExplicitModel {
            partition: self.partition,
            sets,
            marginals,
        }))
    }
}

// ---------------------------------------------------------------------------
// Substrate models
// ---------------------------------------------------------------------------

/// A congestion model in which hidden *substrate elements* (e.g.
/// router-level links under an AS-level graph) fail independently and a
/// logical link is congested iff any substrate element it depends on has
/// failed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubstrateModel {
    substrate_probs: Vec<f64>,
    dependencies: Vec<Vec<usize>>,
    /// The inverse of `dependencies`: element `s`'s dependent links are
    /// `dependents[dependent_starts[s]..dependent_starts[s + 1]]`.
    dependent_starts: Vec<usize>,
    dependents: Vec<usize>,
}

impl SubstrateModel {
    /// Creates a substrate model.
    ///
    /// `substrate_probs[s]` is the congestion probability of substrate
    /// element `s`; `dependencies[k]` lists the substrate elements that
    /// logical link `k` depends on.
    pub fn new(substrate_probs: Vec<f64>, dependencies: Vec<Vec<usize>>) -> Result<Self, SimError> {
        for &p in &substrate_probs {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(SimError::InvalidProbability {
                    value: p,
                    context: "substrate element congestion",
                });
            }
        }
        for deps in &dependencies {
            for &d in deps {
                if d >= substrate_probs.len() {
                    return Err(SimError::UnknownSubstrateElement {
                        index: d,
                        available: substrate_probs.len(),
                    });
                }
            }
        }
        let mut dependent_starts = vec![0; substrate_probs.len() + 1];
        for &d in dependencies.iter().flatten() {
            dependent_starts[d + 1] += 1;
        }
        for s in 0..substrate_probs.len() {
            dependent_starts[s + 1] += dependent_starts[s];
        }
        let mut next = dependent_starts.clone();
        let mut dependents = vec![0; dependencies.iter().map(Vec::len).sum()];
        for (link, deps) in dependencies.iter().enumerate() {
            for &d in deps {
                dependents[next[d]] = link;
                next[d] += 1;
            }
        }
        Ok(SubstrateModel {
            substrate_probs,
            dependencies,
            dependent_starts,
            dependents,
        })
    }

    /// Number of logical links.
    pub fn num_links(&self) -> usize {
        self.dependencies.len()
    }

    /// Ground-truth marginal congestion probability of a logical link:
    /// `1 − Π (1 − q_s)` over its substrate dependencies.
    pub fn marginal(&self, link: LinkId) -> f64 {
        let survive: f64 = self.dependencies[link.index()]
            .iter()
            .map(|&s| 1.0 - self.substrate_probs[s])
            .product();
        1.0 - survive
    }

    /// Samples the congestion state of every logical link for one snapshot.
    pub fn sample_state(&self, rng: &mut impl Rng) -> Vec<bool> {
        let mut state = vec![false; self.num_links()];
        self.sample_state_into(rng, &mut state);
        state
    }

    /// [`SubstrateModel::sample_state`] into `state`, one entry per
    /// logical link: the same draws, one per element with a non-zero
    /// probability in element order, into a reused buffer. A failed
    /// element marks its dependent links congested.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one entry per logical link.
    pub fn sample_state_into(&self, rng: &mut impl Rng, state: &mut [bool]) {
        assert_eq!(state.len(), self.num_links(), "one state per link");
        state.fill(false);
        for (s, &p) in self.substrate_probs.iter().enumerate() {
            if p > 0.0 && rng.random_bool(p.min(1.0)) {
                let links =
                    &self.dependents[self.dependent_starts[s]..self.dependent_starts[s + 1]];
                for &link in links {
                    state[link] = true;
                }
            }
        }
    }

    /// Exact joint probability that all the given logical links are
    /// congested, by inclusion–exclusion over the "link is good" events.
    /// Returns `None` when more than 20 links are requested (2^|A| terms).
    pub fn joint_congestion_probability(&self, links: &[LinkId]) -> Option<f64> {
        if links.len() > MAX_INCLUSION_EXCLUSION {
            return None;
        }
        let n = links.len();
        let mut total = 0.0;
        for mask in 0u64..(1u64 << n) {
            // P(all links in the masked subset are good) = Π over the union
            // of their substrate dependencies of (1 - q).
            let mut union: Vec<usize> = Vec::new();
            for (bit, &link) in links.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    union.extend(self.dependencies[link.index()].iter().copied());
                }
            }
            union.sort_unstable();
            union.dedup();
            let prob_good: f64 = union
                .iter()
                .map(|&s| 1.0 - self.substrate_probs[s])
                .product();
            let sign = if mask.count_ones() % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            total += sign * prob_good;
        }
        Some(total.clamp(0.0, 1.0))
    }
}

// ---------------------------------------------------------------------------
// The unified model type
// ---------------------------------------------------------------------------

/// A congestion model: either an explicit block-structured model or a
/// hidden-substrate model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CongestionModel {
    /// Explicit per-correlation-set joint distributions.
    Explicit(ExplicitModel),
    /// Hidden-substrate (BRITE-style) model.
    Substrate(SubstrateModel),
}

impl CongestionModel {
    /// Number of links.
    pub fn num_links(&self) -> usize {
        match self {
            CongestionModel::Explicit(m) => m.num_links(),
            CongestionModel::Substrate(m) => m.num_links(),
        }
    }

    /// Ground-truth marginal congestion probability of a link.
    pub fn marginal(&self, link: LinkId) -> f64 {
        match self {
            CongestionModel::Explicit(m) => m.marginal(link),
            CongestionModel::Substrate(m) => m.marginal(link),
        }
    }

    /// All ground-truth marginals, indexed by link.
    pub fn marginals(&self) -> Vec<f64> {
        (0..self.num_links())
            .map(|i| self.marginal(LinkId(i)))
            .collect()
    }

    /// Samples the congestion state of every link for one snapshot.
    pub fn sample_state(&self, rng: &mut impl Rng) -> Vec<bool> {
        let mut state = vec![false; self.num_links()];
        self.sample_state_into(rng, &mut state);
        state
    }

    /// [`CongestionModel::sample_state`] into `state`, one entry per
    /// link: the same draws, into a reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if `state` does not have one entry per link.
    pub fn sample_state_into(&self, rng: &mut impl Rng, state: &mut [bool]) {
        match self {
            CongestionModel::Explicit(m) => m.sample_state_into(rng, state),
            CongestionModel::Substrate(m) => m.sample_state_into(rng, state),
        }
    }

    /// Exact joint probability that all the given links are congested, when
    /// the model can provide it.
    pub fn joint_congestion_probability(&self, links: &[LinkId]) -> Option<f64> {
        match self {
            CongestionModel::Explicit(m) => Some(m.joint_congestion_probability(links)),
            CongestionModel::Substrate(m) => m.joint_congestion_probability(links),
        }
    }
}

impl From<ExplicitModel> for CongestionModel {
    fn from(m: ExplicitModel) -> Self {
        CongestionModel::Explicit(m)
    }
}

impl From<SubstrateModel> for CongestionModel {
    fn from(m: SubstrateModel) -> Self {
        CongestionModel::Substrate(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcorr_topology::toy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The Figure 1(a) model used throughout the examples: e1 and e2 fail
    /// together 20% of the time, e3 and e4 independently 10% of the time.
    fn fig1a_model() -> CongestionModel {
        let inst = toy::figure_1a();
        CongestionModelBuilder::new(&inst.correlation)
            .joint_group(&[LinkId(0), LinkId(1)], 0.2)
            .independent(LinkId(2), 0.1)
            .independent(LinkId(3), 0.1)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_the_expected_marginals() {
        let model = fig1a_model();
        assert_eq!(model.num_links(), 4);
        assert!((model.marginal(LinkId(0)) - 0.2).abs() < 1e-12);
        assert!((model.marginal(LinkId(1)) - 0.2).abs() < 1e-12);
        assert!((model.marginal(LinkId(2)) - 0.1).abs() < 1e-12);
        assert!((model.marginal(LinkId(3)) - 0.1).abs() < 1e-12);
        assert_eq!(model.marginals().len(), 4);
    }

    #[test]
    fn unmentioned_links_are_always_good() {
        let inst = toy::figure_1a();
        let model = CongestionModelBuilder::new(&inst.correlation)
            .independent(LinkId(2), 0.3)
            .build()
            .unwrap();
        assert_eq!(model.marginal(LinkId(0)), 0.0);
        assert_eq!(model.marginal(LinkId(3)), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..200 {
            let state = model.sample_state(&mut rng);
            assert!(!state[0]);
            assert!(!state[1]);
            assert!(!state[3]);
        }
    }

    #[test]
    fn joint_group_links_fail_together() {
        let model = fig1a_model();
        let mut rng = StdRng::seed_from_u64(1);
        let mut joint_count = 0;
        let n = 20_000;
        for _ in 0..n {
            let state = model.sample_state(&mut rng);
            // e1 and e2 are all-or-nothing.
            assert_eq!(state[0], state[1]);
            if state[0] {
                joint_count += 1;
            }
        }
        let freq = joint_count as f64 / n as f64;
        assert!((freq - 0.2).abs() < 0.02, "joint frequency {freq}");
    }

    #[test]
    fn sampling_frequencies_match_marginals() {
        let model = fig1a_model();
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let mut counts = [0usize; 4];
        for _ in 0..n {
            let state = model.sample_state(&mut rng);
            for (i, &c) in state.iter().enumerate() {
                if c {
                    counts[i] += 1;
                }
            }
        }
        for (i, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            let expected = model.marginal(LinkId(i));
            assert!(
                (freq - expected).abs() < 0.02,
                "link {i}: frequency {freq}, expected {expected}"
            );
        }
    }

    #[test]
    fn exact_set_state_probabilities_match_the_construction() {
        let CongestionModel::Explicit(explicit) = fig1a_model() else {
            panic!("the builder builds explicit models");
        };
        // Correlation set C1 = {e1, e2}: S^1 = {e1, e2} with prob 0.2,
        // S^1 = ∅ with prob 0.8, partial states impossible.
        let c1 = CorrelationSetId(0);
        assert!(
            (explicit
                .set_state_probability(c1, &[LinkId(0), LinkId(1)])
                .unwrap()
                - 0.2)
                .abs()
                < 1e-12
        );
        assert!((explicit.set_state_probability(c1, &[]).unwrap() - 0.8).abs() < 1e-12);
        assert_eq!(
            explicit.set_state_probability(c1, &[LinkId(0)]).unwrap(),
            0.0
        );
        assert!((explicit.prob_set_all_good(c1) - 0.8).abs() < 1e-12);
        // Links from another set are rejected.
        assert!(explicit.set_state_probability(c1, &[LinkId(2)]).is_none());
    }

    #[test]
    fn joint_probabilities_multiply_across_sets() {
        let model = fig1a_model();
        // e1 and e3 are in different sets: P = 0.2 * 0.1.
        let p = model
            .joint_congestion_probability(&[LinkId(0), LinkId(2)])
            .unwrap();
        assert!((p - 0.02).abs() < 1e-12);
        // e1 and e2 are all-or-nothing: P = 0.2.
        let p = model
            .joint_congestion_probability(&[LinkId(0), LinkId(1)])
            .unwrap();
        assert!((p - 0.2).abs() < 1e-12);
        // All four links.
        let p = model
            .joint_congestion_probability(&[LinkId(0), LinkId(1), LinkId(2), LinkId(3)])
            .unwrap();
        assert!((p - 0.2 * 0.1 * 0.1).abs() < 1e-12);
        // The empty set is "all of no links congested" = 1.
        assert_eq!(model.joint_congestion_probability(&[]).unwrap(), 1.0);
    }

    #[test]
    fn builder_rejects_invalid_specifications() {
        let inst = toy::figure_1a();
        // Probability out of range.
        assert!(matches!(
            CongestionModelBuilder::new(&inst.correlation)
                .independent(LinkId(0), 1.5)
                .build(),
            Err(SimError::InvalidProbability { .. })
        ));
        // Unknown link.
        assert!(matches!(
            CongestionModelBuilder::new(&inst.correlation)
                .independent(LinkId(9), 0.5)
                .build(),
            Err(SimError::UnknownLink(_))
        ));
        // Duplicate link.
        assert!(matches!(
            CongestionModelBuilder::new(&inst.correlation)
                .independent(LinkId(0), 0.5)
                .independent(LinkId(0), 0.2)
                .build(),
            Err(SimError::DuplicateLink(_))
        ));
        // Group spanning correlation sets (e1 and e3).
        assert!(matches!(
            CongestionModelBuilder::new(&inst.correlation)
                .joint_group(&[LinkId(0), LinkId(2)], 0.5)
                .build(),
            Err(SimError::GroupSpansCorrelationSets { .. })
        ));
        // Empty group.
        assert!(matches!(
            CongestionModelBuilder::new(&inst.correlation)
                .joint_group(&[], 0.5)
                .build(),
            Err(SimError::EmptyGroup)
        ));
    }

    #[test]
    fn oversized_sets_are_rejected() {
        let partition = CorrelationPartition::single_set(70);
        let builder = CongestionModelBuilder::new(&partition);
        assert!(matches!(
            builder.build(),
            Err(SimError::SetTooLarge { size: 70 })
        ));
    }

    #[test]
    fn substrate_model_marginals_and_sampling_agree() {
        // Three substrate elements; link 0 depends on {0}, link 1 on {0, 1},
        // link 2 on {2}.
        let model =
            SubstrateModel::new(vec![0.2, 0.1, 0.3], vec![vec![0], vec![0, 1], vec![2]]).unwrap();
        assert_eq!(model.num_links(), 3);
        assert!((model.marginal(LinkId(0)) - 0.2).abs() < 1e-12);
        assert!((model.marginal(LinkId(1)) - (1.0 - 0.8 * 0.9)).abs() < 1e-12);
        assert!((model.marginal(LinkId(2)) - 0.3).abs() < 1e-12);

        let mut rng = StdRng::seed_from_u64(3);
        let n = 30_000;
        let mut counts = [0usize; 3];
        let mut joint01 = 0usize;
        for _ in 0..n {
            let state = model.sample_state(&mut rng);
            for (i, &c) in state.iter().enumerate() {
                if c {
                    counts[i] += 1;
                }
            }
            if state[0] && state[1] {
                joint01 += 1;
            }
            // Link 0 congested implies link 1 congested (shared element 0).
            if state[0] {
                assert!(state[1]);
            }
        }
        for (i, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            let expected = model.marginal(LinkId(i));
            assert!(
                (freq - expected).abs() < 0.02,
                "link {i}: frequency {freq}, expected {expected}"
            );
        }
        // Exact joint probability by inclusion–exclusion: links 0 and 1 are
        // both congested iff element 0 fails (link 0 needs it), so P = 0.2.
        let exact = model
            .joint_congestion_probability(&[LinkId(0), LinkId(1)])
            .unwrap();
        assert!((exact - 0.2).abs() < 1e-12);
        let freq = joint01 as f64 / n as f64;
        assert!((freq - exact).abs() < 0.02);
    }

    #[test]
    fn substrate_model_validation() {
        assert!(matches!(
            SubstrateModel::new(vec![1.5], vec![vec![0]]),
            Err(SimError::InvalidProbability { .. })
        ));
        assert!(matches!(
            SubstrateModel::new(vec![0.5], vec![vec![1]]),
            Err(SimError::UnknownSubstrateElement { .. })
        ));
        // Too many links for exact joint probabilities.
        let model = SubstrateModel::new(vec![0.5], vec![vec![0]; 30]).unwrap();
        let links: Vec<LinkId> = (0..25).map(LinkId).collect();
        assert!(model.joint_congestion_probability(&links).is_none());
    }

    #[test]
    fn conversions_into_the_unified_type() {
        let substrate = SubstrateModel::new(vec![0.1], vec![vec![0]]).unwrap();
        let model: CongestionModel = substrate.clone().into();
        assert_eq!(model.num_links(), 1);
        assert!(matches!(model, CongestionModel::Substrate(_)));
        assert!((model.marginals()[0] - 0.1).abs() < 1e-12);
    }
}
