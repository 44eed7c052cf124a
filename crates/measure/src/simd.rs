//! Popcount kernels for the packed estimator hot paths.
//!
//! The joint-goodness queries bottom out in two word-level kernels over
//! the packed lanes of [`super::BitLanes`]:
//!
//! * **pair-good popcount** — `Σ_w popcount(!(a_w | b_w) & m_w)`, the
//!   count of snapshots in which *both* paths of a pair were good
//!   (`!a & !b = !(a | b)` by De Morgan, saving one NOT per word);
//! * **all-good popcount** — the k-lane generalisation, ANDing the
//!   complements of any number of lanes.
//!
//! (Exact-state and all-paths-good counts are lane-major sweeps with
//! early exits, in [`crate::ProbabilityEstimator`].)
//!
//! Each kernel is safe scalar code, 4-wide unrolled with independent
//! accumulators so the backend can keep four `popcnt` chains in flight
//! (and auto-vectorize where profitable). The differential test suite
//! asserts bit-exact agreement with the scalar reference implementation
//! in [`crate::reference`] on random inputs.
//!
//! # Conventions
//!
//! Lane slices are the *used* prefix of a lane (`BitLanes::lane`), whose
//! stored tail bits beyond the logical slot count are zero; because the
//! kernels complement the words, the caller passes `tail_mask`
//! ([`super::tail_mask`]) to zero the phantom slots of the last word.

use std::fmt;

/// The popcount kernel the estimator runs, as reported by
/// `netcorr-serve STATUS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// Safe scalar kernels, 4-wide unrolled.
    Portable,
}

impl KernelTier {
    /// The tier's wire name, as reported by `netcorr-serve STATUS`.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
        }
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The tier [`pair_good_count`] and [`all_good_count`] run: always
/// [`KernelTier::Portable`].
pub fn active_tier() -> KernelTier {
    KernelTier::Portable
}

/// Counts the slots in which **both** lanes are zero (both paths good):
/// `Σ_w popcount(!(a_w | b_w))` with the last word masked by `tail_mask`.
///
/// `a` and `b` must have equal length (the used words of two lanes of the
/// same [`super::BitLanes`]).
#[inline]
pub fn pair_good_count(a: &[u64], b: &[u64], tail_mask: u64) -> usize {
    assert_eq!(a.len(), b.len(), "pair lanes must have equal length");
    if a.is_empty() {
        return 0;
    }
    let last = a.len() - 1;
    let (body_a, last_a) = a.split_at(last);
    let (body_b, last_b) = b.split_at(last);
    let mut counts = [0u64; 4];
    let mut chunks_a = body_a.chunks_exact(4);
    let mut chunks_b = body_b.chunks_exact(4);
    for (ca, cb) in (&mut chunks_a).zip(&mut chunks_b) {
        counts[0] += (!(ca[0] | cb[0])).count_ones() as u64;
        counts[1] += (!(ca[1] | cb[1])).count_ones() as u64;
        counts[2] += (!(ca[2] | cb[2])).count_ones() as u64;
        counts[3] += (!(ca[3] | cb[3])).count_ones() as u64;
    }
    let mut count = counts.iter().sum::<u64>();
    for (&wa, &wb) in chunks_a.remainder().iter().zip(chunks_b.remainder()) {
        count += (!(wa | wb)).count_ones() as u64;
    }
    count += (!(last_a[0] | last_b[0]) & tail_mask).count_ones() as u64;
    count as usize
}

/// Counts the slots in which **every** given lane is zero (all paths
/// good): `Σ_w popcount(m_w & Π !lane_w)`. With no lanes this is the
/// number of valid slots (the vacuous conjunction).
///
/// # Panics
///
/// Panics if a lane is shorter than `used` words.
#[inline]
pub fn all_good_count(lanes: &[&[u64]], used: usize, tail_mask: u64) -> usize {
    for (i, lane) in lanes.iter().enumerate() {
        assert!(
            lane.len() >= used,
            "lane {i} has {} words, query needs {used}",
            lane.len()
        );
    }
    if used == 0 {
        return 0;
    }
    let mut count = 0u64;
    let mut w = 0;
    // 4-wide over the full words; the AND-of-complements accumulators are
    // independent, so the four popcount chains pipeline.
    while w + 4 < used {
        let mut acc = [!0u64; 4];
        for lane in lanes {
            acc[0] &= !lane[w];
            acc[1] &= !lane[w + 1];
            acc[2] &= !lane[w + 2];
            acc[3] &= !lane[w + 3];
        }
        count += acc.iter().map(|a| a.count_ones() as u64).sum::<u64>();
        w += 4;
    }
    while w < used {
        let mut acc = if w + 1 == used { tail_mask } else { !0u64 };
        for lane in lanes {
            acc &= !lane[w];
            if acc == 0 {
                break;
            }
        }
        count += acc.count_ones() as u64;
        w += 1;
    }
    count as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word pattern with a mix of dense and sparse words.
    fn pattern(len: usize, salt: u64) -> Vec<u64> {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect()
    }

    fn reference_pair(a: &[u64], b: &[u64], tail: u64) -> usize {
        let mut count = 0;
        for w in 0..a.len() {
            let m = if w + 1 == a.len() { tail } else { !0 };
            count += (!(a[w] | b[w]) & m).count_ones() as usize;
        }
        count
    }

    #[test]
    fn pair_count_matches_reference_across_lengths() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 64] {
            let a = pattern(len, 1);
            let b = pattern(len, 2);
            for tail in [!0u64, 1, 0xffff, (1 << 37) - 1] {
                assert_eq!(pair_good_count(&a, &b, tail), reference_pair(&a, &b, tail));
            }
        }
    }

    #[test]
    fn empty_lane_set_counts_every_slot() {
        // The vacuous conjunction: with no lanes, every valid slot matches.
        assert_eq!(all_good_count(&[], 2, 0b111), 64 + 3);
        assert_eq!(all_good_count(&[], 0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "query needs")]
    fn short_lanes_are_rejected_not_read() {
        // `used` beyond a lane's length must panic, never read out of range.
        let lane = [0u64];
        all_good_count(&[&lane], 8, !0);
    }
}
