//! The packet-loss model of the paper's evaluation.
//!
//! Following the loss model of Padmanabhan et al. \[13\] (also used in
//! \[11, 16\]), in every snapshot each link is assigned a packet-loss rate
//! drawn uniformly from `[0, t_l]` if the link is good and from `(t_l, 1]`
//! if it is congested, with `t_l = 0.01` by default.
//!
//! A path probed with `n` packets is congested when its measured loss
//! `1 − delivered / n` exceeds `t_p = 1 − (1 − t_l)^d`. The number of lost
//! packets is Binomial(`n`, `1 − delivery`), and the classification only
//! asks whether it reaches a cutoff count `c_d`. So the binomial
//! transmission model never draws a count: `LossTail` draws the
//! good/congested bit directly, with the exact tail probability
//! `P(Bin(n, 1 − delivery) ≥ c_d)`.

use rand::{Rng, RngExt};

use crate::config::SimulationConfig;

/// Draws a packet-loss rate for a link with the given congestion status.
pub fn sample_loss_rate(rng: &mut impl Rng, congested: bool, config: &SimulationConfig) -> f64 {
    let tl = config.link_congestion_threshold;
    if congested {
        // Uniform in (t_l, 1].
        tl + (1.0 - tl) * rng.random::<f64>()
    } else {
        // Uniform in [0, t_l].
        tl * rng.random::<f64>()
    }
}

/// End-to-end delivery probability of a path whose links have the given
/// loss rates: every packet must survive every link.
pub fn path_delivery_probability(loss_rates: &[f64]) -> f64 {
    loss_rates.iter().map(|l| 1.0 - l).product()
}

/// End-to-end loss probability of a path (`1 −` delivery probability).
pub fn path_loss_probability(loss_rates: &[f64]) -> f64 {
    1.0 - path_delivery_probability(loss_rates)
}

/// The smallest number of lost packets, out of `packets`, for which a path
/// is declared congested against `threshold`, or `packets + 1` when no
/// count is.
///
/// The predicate is exactly the float expression the packet-level models
/// apply to a measured count, `1 − delivered / n > t_p`, so classifying
/// by the cutoff agrees with classifying the count. The predicate is
/// monotone in the loss count, which the binary search relies on.
fn congestion_cutoff(packets: usize, threshold: f64) -> usize {
    let congested = |lost: usize| 1.0 - (packets - lost) as f64 / packets as f64 > threshold;
    let (mut lo, mut hi) = (0, packets + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if congested(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// `ln C(n, k)` for `k ≤ n`, as a sum of `min(k, n − k)` logarithms.
fn ln_choose(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    (1..=k).map(|i| ((n - k + i) as f64 / i as f64).ln()).sum()
}

/// The event "a path loses at least `cutoff` of its `packets` probe
/// packets", drawn as one Bernoulli trial.
///
/// With delivery probability `q` and loss probability `ℓ = 1 − q`, the
/// number of lost packets is Binomial(`n`, `ℓ`), and [`LossTail::sample`]
/// returns `true` with probability `P(Bin(n, ℓ) ≥ cutoff)`, exactly: it
/// draws one uniform `u` and sums pmf terms outward from the cutoff until
/// `u` is decided. No packet count is materialised.
#[derive(Debug, Clone)]
pub(crate) struct LossTail {
    packets: usize,
    cutoff: usize,
    /// `ln C(n, c)`, the first term of the upper tail.
    ln_choose_at: f64,
    /// `ln C(n, c − 1)`, the first term of the lower tail.
    ln_choose_below: f64,
}

impl LossTail {
    /// The tail `P(lost ≥ cutoff)` over `packets` probe packets.
    fn new(packets: usize, cutoff: usize) -> Self {
        let (ln_choose_at, ln_choose_below) = if (1..=packets).contains(&cutoff) {
            (ln_choose(packets, cutoff), ln_choose(packets, cutoff - 1))
        } else {
            (0.0, 0.0)
        };
        LossTail {
            packets,
            cutoff,
            ln_choose_at,
            ln_choose_below,
        }
    }

    /// The tail at the [`congestion_cutoff`] of `threshold`: a path is
    /// congested exactly when this event happens.
    pub(crate) fn for_threshold(packets: usize, threshold: f64) -> Self {
        Self::new(packets, congestion_cutoff(packets, threshold))
    }

    /// Draws whether a path with end-to-end `delivery` probability loses
    /// at least `cutoff` packets. Consumes exactly one uniform.
    ///
    /// Starting at the cutoff, the pmf terms fall off geometrically on the
    /// side away from the mode: the upper tail `k ≥ c` when `c` is above
    /// the mode, the lower tail `k < c` otherwise. The loop stops as soon
    /// as `u` is below the partial sum or above the partial sum plus the
    /// geometric bound on the terms not yet summed — a few terms, one
    /// `exp` and two `ln`s per call.
    pub(crate) fn sample(&self, delivery: f64, rng: &mut impl Rng) -> bool {
        let u: f64 = rng.random();
        let (n, c) = (self.packets, self.cutoff);
        let loss = 1.0 - delivery;
        if c == 0 || delivery <= 0.0 {
            return c <= n;
        }
        if c > n || loss <= 0.0 {
            return false;
        }
        let (ln_loss, ln_delivery) = (loss.ln(), delivery.ln());
        let mode = ((n + 1) as f64 * loss).floor() as usize;
        // Each pass sums one more term. The ratio between consecutive
        // terms only shrinks away from the cutoff, so once `term` is the
        // first unsummed one, the unsummed rest is at most
        // `term / (1 − ratio)`.
        if c > mode {
            // Congested iff u < Σ_{k ≥ c} pmf(k).
            let odds = loss / delivery;
            let mut k = c;
            let mut term =
                (self.ln_choose_at + k as f64 * ln_loss + (n - k) as f64 * ln_delivery).exp();
            let mut sum = 0.0;
            loop {
                sum += term;
                if u < sum {
                    return true;
                }
                if k == n {
                    return false;
                }
                let ratio = (n - k) as f64 / (k + 1) as f64 * odds;
                term *= ratio;
                if ratio < 1.0 && u >= sum + term / (1.0 - ratio) {
                    return false;
                }
                k += 1;
            }
        } else {
            // Congested iff u ≥ Σ_{k < c} pmf(k).
            let odds = delivery / loss;
            let mut k = c - 1;
            let mut term =
                (self.ln_choose_below + k as f64 * ln_loss + (n - k) as f64 * ln_delivery).exp();
            let mut sum = 0.0;
            loop {
                sum += term;
                if u < sum {
                    return false;
                }
                if k == 0 {
                    return true;
                }
                let ratio = k as f64 / (n - k + 1) as f64 * odds;
                term *= ratio;
                if ratio < 1.0 && u >= sum + term / (1.0 - ratio) {
                    return true;
                }
                k -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn loss_rates_fall_in_the_prescribed_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        let config = SimulationConfig::default();
        for _ in 0..2000 {
            let good = sample_loss_rate(&mut rng, false, &config);
            assert!((0.0..=0.01).contains(&good), "good loss {good}");
            let congested = sample_loss_rate(&mut rng, true, &config);
            assert!(
                congested > 0.01 && congested <= 1.0,
                "congested loss {congested}"
            );
        }
    }

    #[test]
    fn loss_ranges_follow_the_configured_threshold() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = SimulationConfig {
            link_congestion_threshold: 0.2,
            ..SimulationConfig::default()
        };
        for _ in 0..500 {
            assert!(sample_loss_rate(&mut rng, false, &config) <= 0.2);
            assert!(sample_loss_rate(&mut rng, true, &config) > 0.2);
        }
    }

    #[test]
    fn path_delivery_probability_multiplies_link_survival() {
        assert!((path_delivery_probability(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((path_delivery_probability(&[0.5]) - 0.5).abs() < 1e-12);
        assert!((path_delivery_probability(&[0.5, 0.5]) - 0.25).abs() < 1e-12);
        assert!((path_loss_probability(&[0.1, 0.1]) - (1.0 - 0.81)).abs() < 1e-12);
        // Empty path: everything delivered.
        assert_eq!(path_delivery_probability(&[]), 1.0);
    }

    /// `P(Bin(n, loss) ≥ c)` as the full sum of its pmf terms, each from
    /// a ln-factorial table: the oracle for [`LossTail::sample`].
    fn exact_tail(n: usize, c: usize, loss: f64) -> f64 {
        if loss <= 0.0 || loss >= 1.0 {
            let lost = if loss <= 0.0 { 0 } else { n };
            return if lost >= c { 1.0 } else { 0.0 };
        }
        let ln_fact: Vec<f64> = std::iter::once(0.0)
            .chain((1..=n).scan(0.0, |acc, i| {
                *acc += (i as f64).ln();
                Some(*acc)
            }))
            .collect();
        (c..=n)
            .map(|k| {
                (ln_fact[n] - ln_fact[k] - ln_fact[n - k]
                    + k as f64 * loss.ln()
                    + (n - k) as f64 * (1.0 - loss).ln())
                .exp()
            })
            .sum::<f64>()
            .min(1.0)
    }

    #[test]
    fn binomial_edge_cases() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            // Every path loses at least zero packets, none loses n + 1.
            assert!(LossTail::new(100, 0).sample(0.3, &mut rng));
            assert!(!LossTail::new(100, 101).sample(0.3, &mut rng));
            // A lossless path loses nothing; a dead one loses everything.
            assert!(!LossTail::new(100, 1).sample(1.0, &mut rng));
            assert!(LossTail::new(100, 100).sample(0.0, &mut rng));
            assert!(LossTail::new(1, 1).sample(0.0, &mut rng));
        }
        // Every draw consumes exactly one uniform, whatever the branch.
        let mut replay = StdRng::seed_from_u64(4);
        let mut drawn = StdRng::seed_from_u64(4);
        for (cutoff, delivery) in [
            (0, 0.5),
            (5, 1.0),
            (5, 0.0),
            (10, 0.99),
            (10, 0.5),
            (900, 0.5),
        ] {
            LossTail::new(1000, cutoff).sample(delivery, &mut drawn);
            let _: f64 = replay.random();
        }
        assert_eq!(drawn.random::<u64>(), replay.random::<u64>());
    }

    #[test]
    fn tail_draws_match_the_exact_tail() {
        // (packets, cutoff, loss): far below, at and far above the cutoff,
        // on both sides of the mode, plus the degenerate cutoffs and rates.
        let cases = [
            (1000, 30, 0.005),
            (1000, 10, 3e-6),
            (1000, 1, 3e-6),
            (1000, 10, 0.01),
            (1000, 20, 0.0199),
            (1000, 12, 0.01),
            (1000, 10, 0.3),
            (1000, 290, 0.3),
            (1000, 40, 0.03),
            (1000, 500, 0.5),
            (1000, 501, 0.5),
            (1000, 1000, 0.999),
            (1000, 0, 0.4),
            (1000, 1001, 0.4),
            (1000, 5, 0.0),
            (1000, 1000, 1.0),
            (200, 4, 0.0199),
            (7, 3, 0.4),
            (1, 1, 0.3),
        ];
        let draws = 100_000;
        let mut rng = StdRng::seed_from_u64(7);
        for (n, c, loss) in cases {
            let tail = LossTail::new(n, c);
            let hits = (0..draws)
                .filter(|_| tail.sample(1.0 - loss, &mut rng))
                .count();
            let p = exact_tail(n, c, loss);
            let freq = hits as f64 / draws as f64;
            let sd = (p * (1.0 - p) / draws as f64).sqrt();
            if sd == 0.0 {
                assert_eq!(freq, p, "n={n} c={c} loss={loss}");
            } else {
                let z = (freq - p) / sd;
                assert!(
                    z.abs() <= 4.0,
                    "n={n} c={c} loss={loss}: {freq} vs {p} (z={z})"
                );
            }
        }
    }

    #[test]
    fn cutoff_is_the_first_count_where_the_count_predicate_flips() {
        for tl in [0.01, 0.05, 0.2] {
            let config = SimulationConfig {
                link_congestion_threshold: tl,
                ..SimulationConfig::default()
            };
            for d in 0..=16 {
                let threshold = config.path_congestion_threshold(d);
                for n in [1usize, 7, 200, 1000] {
                    let brute = (0..=n)
                        .find(|&lost| 1.0 - (n - lost) as f64 / n as f64 > threshold)
                        .unwrap_or(n + 1);
                    assert_eq!(
                        congestion_cutoff(n, threshold),
                        brute,
                        "t_l={tl} d={d} n={n}"
                    );
                    assert_eq!(LossTail::for_threshold(n, threshold).cutoff, brute);
                }
            }
        }
    }
}
