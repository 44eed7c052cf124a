//! Explicit SIMD kernels for the packed estimator hot paths.
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
//! (Exact-state and all-paths-good counts are plain lane-major sweeps in
//! [`crate::ProbabilityEstimator`], whose early exits beat a vector tier.)
//!
//! Each kernel exists in four tiers:
//!
//! 1. `*_avx512` — AVX-512 `std::arch` intrinsics, processing eight
//!    `u64` words per instruction. Popcounts are a single `vpopcntdq`
//!    (`_mm512_popcnt_epi64`) per vector — no nibble lookup at all.
//!    Gated on `avx512f` **and** `avx512vpopcntdq` (Ice Lake / Zen 4 and
//!    newer).
//! 2. `*_avx2` — AVX2 intrinsics, four `u64` words per instruction.
//!    Popcounts use the classic nibble-lookup (`vpshufb` against a
//!    16-entry table, then `vpsadbw` to fold bytes into per-`u64`
//!    sums), which needs no cross-lane work until the final horizontal
//!    reduction.
//! 3. `*_portable` — safe scalar code, 4-wide unrolled with independent
//!    accumulators so the backend can keep four `popcnt` chains in
//!    flight (and auto-vectorize where profitable).
//! 4. The un-suffixed dispatcher — walks the ladder top-down per call
//!    via `std::arch::is_x86_feature_detected!` (the result is cached
//!    by `std` in an atomic, so each check costs a load and a branch):
//!    AVX-512 first, then AVX2, then the portable fallback.
//!
//! All tiers are `pub` so the differential test suite can assert
//! bit-exact agreement between them (and against the scalar reference
//! implementation in [`crate::reference`]) on random inputs. The
//! `_avx512` / `_avx2` entry points return `None` when the CPU lacks the
//! feature instead of exposing `unsafe` to callers, so tests skip cleanly
//! on older hardware.
//!
//! # Conventions
//!
//! Lane slices are the *used* prefix of a lane (`BitLanes::lane`), whose
//! stored tail bits beyond the logical slot count are zero; because the
//! kernels complement the words, the caller passes `tail_mask`
//! ([`super::tail_mask`]) to zero the phantom slots of the last word.

// The SIMD tiers are the one place in this crate where `unsafe` is
// justified: `#[target_feature]` functions are only called behind a
// runtime CPU-feature check.
#![allow(unsafe_code)]

use std::fmt;

/// The kernel tiers of the runtime dispatch ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// AVX-512 (`avx512f` + `avx512vpopcntdq`): 8 words per instruction.
    Avx512,
    /// AVX2: 4 words per instruction, nibble-LUT popcounts.
    Avx2,
    /// Safe scalar fallback, 4-wide unrolled.
    Portable,
}

impl KernelTier {
    /// The tier's wire name, as reported by `netcorr-serve STATUS`.
    pub fn as_str(&self) -> &'static str {
        match self {
            KernelTier::Avx512 => "avx512",
            KernelTier::Avx2 => "avx2",
            KernelTier::Portable => "portable",
        }
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The tier the un-suffixed dispatchers select on this CPU.
pub fn active_tier() -> KernelTier {
    if avx512_available() {
        KernelTier::Avx512
    } else if avx2_available() {
        KernelTier::Avx2
    } else {
        KernelTier::Portable
    }
}

/// Counts the slots in which **both** lanes are zero (both paths good):
/// `Σ_w popcount(!(a_w | b_w))` with the last word masked by `tail_mask`.
///
/// `a` and `b` must have equal length (the used words of two lanes of the
/// same [`super::BitLanes`]).
#[inline]
pub fn pair_good_count(a: &[u64], b: &[u64], tail_mask: u64) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_available() {
            // SAFETY: AVX-512 support was just verified at runtime.
            return unsafe { avx512::pair_good_count(a, b, tail_mask) };
        }
        if avx2_available() {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { avx2::pair_good_count(a, b, tail_mask) };
        }
    }
    pair_good_count_portable(a, b, tail_mask)
}

/// Portable tier of [`pair_good_count`]: 4-wide unrolled scalar popcounts.
pub fn pair_good_count_portable(a: &[u64], b: &[u64], tail_mask: u64) -> usize {
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

/// AVX2 tier of [`pair_good_count`]; `None` when the CPU lacks AVX2.
pub fn pair_good_count_avx2(a: &[u64], b: &[u64], tail_mask: u64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was just verified at runtime.
        return Some(unsafe { avx2::pair_good_count(a, b, tail_mask) });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (a, b, tail_mask);
    None
}

/// AVX-512 tier of [`pair_good_count`]; `None` when the CPU lacks
/// `avx512f`/`avx512vpopcntdq`.
pub fn pair_good_count_avx512(a: &[u64], b: &[u64], tail_mask: u64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        // SAFETY: AVX-512 support was just verified at runtime.
        return Some(unsafe { avx512::pair_good_count(a, b, tail_mask) });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (a, b, tail_mask);
    None
}

/// Counts the slots in which **every** given lane is zero (all paths
/// good): `Σ_w popcount(m_w & Π !lane_w)`. With no lanes this is the
/// number of valid slots (the vacuous conjunction).
#[inline]
pub fn all_good_count(lanes: &[&[u64]], used: usize, tail_mask: u64) -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512_available() {
            // SAFETY: AVX-512 support was just verified at runtime.
            return unsafe { avx512::all_good_count(lanes, used, tail_mask) };
        }
        if avx2_available() {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { avx2::all_good_count(lanes, used, tail_mask) };
        }
    }
    all_good_count_portable(lanes, used, tail_mask)
}

/// Every lane must cover the queried word range; the AVX2 tier performs
/// raw 256-bit loads, so this is a soundness bound, not just a logic
/// check.
#[inline]
fn check_lanes(lanes: &[&[u64]], used: usize) {
    for (i, lane) in lanes.iter().enumerate() {
        assert!(
            lane.len() >= used,
            "lane {i} has {} words, query needs {used}",
            lane.len()
        );
    }
}

/// Portable tier of [`all_good_count`].
pub fn all_good_count_portable(lanes: &[&[u64]], used: usize, tail_mask: u64) -> usize {
    check_lanes(lanes, used);
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

/// AVX2 tier of [`all_good_count`]; `None` when the CPU lacks AVX2.
pub fn all_good_count_avx2(lanes: &[&[u64]], used: usize, tail_mask: u64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 support was just verified at runtime.
        return Some(unsafe { avx2::all_good_count(lanes, used, tail_mask) });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (lanes, used, tail_mask);
    None
}

/// AVX-512 tier of [`all_good_count`]; `None` when the CPU lacks
/// `avx512f`/`avx512vpopcntdq`.
pub fn all_good_count_avx512(lanes: &[&[u64]], used: usize, tail_mask: u64) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        // SAFETY: AVX-512 support was just verified at runtime.
        return Some(unsafe { avx512::all_good_count(lanes, used, tail_mask) });
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (lanes, used, tail_mask);
    None
}

/// Whether the AVX2 kernel tier is available on this CPU.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX-512 kernel tier is available on this CPU: `avx512f`
/// **and** `avx512vpopcntdq` together.
pub fn avx512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 implementations. Callers must verify `avx2` support first.

    use core::arch::x86_64::*;

    /// Per-64-bit-lane popcount of a 256-bit vector via the nibble-lookup
    /// method: `vpshufb` maps each nibble to its popcount, `vpsadbw`
    /// folds the sixteen byte counts of each 128-bit half into the two
    /// `u64` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt_epi64(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low_mask);
        let counts = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    /// Horizontal sum of the four `u64` lanes of an accumulator.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn fold_u64(acc: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
        lanes.iter().sum()
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn pair_good_count(a: &[u64], b: &[u64], tail_mask: u64) -> usize {
        // The length equality is a soundness bound here: the loop's raw
        // 256-bit loads are in-bounds for `a` by the loop condition and
        // for `b` only via this assert.
        assert_eq!(a.len(), b.len(), "pair lanes must have equal length");
        if a.is_empty() {
            return 0;
        }
        let body = a.len() - 1;
        let ones = _mm256_set1_epi8(-1);
        let mut acc = _mm256_setzero_si256();
        let mut w = 0;
        while w + 4 <= body {
            let va = _mm256_loadu_si256(a.as_ptr().add(w) as *const __m256i);
            let vb = _mm256_loadu_si256(b.as_ptr().add(w) as *const __m256i);
            // !(a | b): one andnot against all-ones instead of two NOTs.
            let good = _mm256_andnot_si256(_mm256_or_si256(va, vb), ones);
            acc = _mm256_add_epi64(acc, popcnt_epi64(good));
            w += 4;
        }
        let mut count = fold_u64(acc);
        while w < body {
            count += (!(a[w] | b[w])).count_ones() as u64;
            w += 1;
        }
        count += (!(a[body] | b[body]) & tail_mask).count_ones() as u64;
        count as usize
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn all_good_count(lanes: &[&[u64]], used: usize, tail_mask: u64) -> usize {
        super::check_lanes(lanes, used);
        if used == 0 {
            return 0;
        }
        let body = used - 1;
        let ones = _mm256_set1_epi8(-1);
        let mut acc = _mm256_setzero_si256();
        let mut w = 0;
        while w + 4 <= body {
            let mut good = ones;
            for lane in lanes {
                let v = _mm256_loadu_si256(lane.as_ptr().add(w) as *const __m256i);
                good = _mm256_andnot_si256(v, good);
            }
            acc = _mm256_add_epi64(acc, popcnt_epi64(good));
            w += 4;
        }
        let mut count = fold_u64(acc);
        while w < used {
            let mut word = if w + 1 == used { tail_mask } else { !0u64 };
            for lane in lanes {
                word &= !lane[w];
                if word == 0 {
                    break;
                }
            }
            count += word.count_ones() as u64;
            w += 1;
        }
        count as usize
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! AVX-512 implementations. Callers must verify `avx512f` and
    //! `avx512vpopcntdq` support first.
    //!
    //! The structure mirrors [`super::avx2`] — a vector body over the
    //! leading full words, a scalar remainder, and a masked final word —
    //! but each vector step covers **eight** `u64` words, the popcount
    //! is a single `vpopcntdq` instead of the nibble dance.

    use core::arch::x86_64::*;

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn pair_good_count(a: &[u64], b: &[u64], tail_mask: u64) -> usize {
        // The length equality is a soundness bound here: the loop's raw
        // 512-bit loads are in-bounds for `a` by the loop condition and
        // for `b` only via this assert.
        assert_eq!(a.len(), b.len(), "pair lanes must have equal length");
        if a.is_empty() {
            return 0;
        }
        let body = a.len() - 1;
        let ones = _mm512_set1_epi8(-1);
        let mut acc = _mm512_setzero_si512();
        let mut w = 0;
        while w + 8 <= body {
            let va = _mm512_loadu_si512(a.as_ptr().add(w) as *const __m512i);
            let vb = _mm512_loadu_si512(b.as_ptr().add(w) as *const __m512i);
            // !(a | b): one andnot against all-ones instead of two NOTs.
            let good = _mm512_andnot_si512(_mm512_or_si512(va, vb), ones);
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(good));
            w += 8;
        }
        let mut count = _mm512_reduce_add_epi64(acc) as u64;
        while w < body {
            count += (!(a[w] | b[w])).count_ones() as u64;
            w += 1;
        }
        count += (!(a[body] | b[body]) & tail_mask).count_ones() as u64;
        count as usize
    }

    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    pub unsafe fn all_good_count(lanes: &[&[u64]], used: usize, tail_mask: u64) -> usize {
        super::check_lanes(lanes, used);
        if used == 0 {
            return 0;
        }
        let body = used - 1;
        let ones = _mm512_set1_epi8(-1);
        let mut acc = _mm512_setzero_si512();
        let mut w = 0;
        while w + 8 <= body {
            let mut good = ones;
            for lane in lanes {
                let v = _mm512_loadu_si512(lane.as_ptr().add(w) as *const __m512i);
                good = _mm512_andnot_si512(v, good);
            }
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(good));
            w += 8;
        }
        let mut count = _mm512_reduce_add_epi64(acc) as u64;
        while w < used {
            let mut word = if w + 1 == used { tail_mask } else { !0u64 };
            for lane in lanes {
                word &= !lane[w];
                if word == 0 {
                    break;
                }
            }
            count += word.count_ones() as u64;
            w += 1;
        }
        count as usize
    }
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
    fn pair_tiers_agree_across_lengths() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 64] {
            let a = pattern(len, 1);
            let b = pattern(len, 2);
            for tail in [!0u64, 1, 0xffff, (1 << 37) - 1] {
                let expected = reference_pair(&a, &b, tail);
                assert_eq!(pair_good_count_portable(&a, &b, tail), expected);
                assert_eq!(pair_good_count(&a, &b, tail), expected);
                if let Some(simd) = pair_good_count_avx2(&a, &b, tail) {
                    assert_eq!(simd, expected);
                }
                if let Some(simd) = pair_good_count_avx512(&a, &b, tail) {
                    assert_eq!(simd, expected);
                }
            }
        }
    }

    #[test]
    fn all_good_tiers_agree() {
        for len in [1usize, 3, 4, 9, 17, 64] {
            let lanes: Vec<Vec<u64>> = (0..5).map(|i| pattern(len, 10 + i)).collect();
            for k in 0..=lanes.len() {
                let refs: Vec<&[u64]> = lanes[..k].iter().map(Vec::as_slice).collect();
                let tail = (1u64 << 41) - 1;
                let expected = {
                    let mut count = 0;
                    for w in 0..len {
                        let mut acc = if w + 1 == len { tail } else { !0 };
                        for lane in &refs {
                            acc &= !lane[w];
                        }
                        count += acc.count_ones() as usize;
                    }
                    count
                };
                assert_eq!(all_good_count_portable(&refs, len, tail), expected);
                assert_eq!(all_good_count(&refs, len, tail), expected);
                if let Some(simd) = all_good_count_avx2(&refs, len, tail) {
                    assert_eq!(simd, expected);
                }
                if let Some(simd) = all_good_count_avx512(&refs, len, tail) {
                    assert_eq!(simd, expected);
                }
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
    fn active_tier_matches_feature_detection() {
        let tier = active_tier();
        if avx512_available() {
            assert_eq!(tier, KernelTier::Avx512);
        } else if avx2_available() {
            assert_eq!(tier, KernelTier::Avx2);
        } else {
            assert_eq!(tier, KernelTier::Portable);
        }
        assert!(["avx512", "avx2", "portable"].contains(&tier.as_str()));
        assert_eq!(tier.to_string(), tier.as_str());
        // The ladder is monotone: vpopcntdq-class CPUs all have AVX2.
        if avx512_available() {
            assert!(avx2_available());
        }
    }

    #[test]
    #[should_panic(expected = "query needs")]
    fn short_lanes_are_rejected_not_read() {
        // Soundness bound: `used` beyond a lane's length must panic in
        // every tier, never reach a raw load.
        let lane = [0u64];
        all_good_count(&[&lane], 8, !0);
    }
}
