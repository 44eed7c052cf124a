//! The packet-loss model of the paper's evaluation.
//!
//! Following the loss model of Padmanabhan et al. \[13\] (also used in
//! \[11, 16\]), in every snapshot each link is assigned a packet-loss rate
//! drawn uniformly from `[0, t_l)` if the link is good and from `[t_l, 1)`
//! if it is congested, with `t_l = 0.01` by default: one uniform
//! `u ∈ [0, 1)` scaled onto each range, so both are half-open.
//!
//! A path probed with `n` packets is congested when its measured loss
//! `1 − delivered / n` exceeds `t_p = 1 − (1 − t_l)^d`. The number of lost
//! packets is Binomial(`n`, `1 − delivery`), and the classification only
//! asks whether it reaches a cutoff count `c_d`. So the binomial
//! transmission model never draws a count: [`LossTail`] draws the
//! good/congested bit directly, with the exact tail probability
//! `P(Bin(n, 1 − delivery) ≥ c_d)`.
//!
//! Each draw takes one uniform `u` and compares it with a pmf sum at the
//! path's delivery. Almost always `u` is far from that sum, so a table of
//! the sum at 1025 delivery values, shared by every simulator with the
//! same `(n, c_d)`, brackets it and decides the draw with two comparisons.
//! Only when `u` falls inside the bracket widened by a relative 1e-9 —
//! under 1% of the draws of a paper-scale trial — are pmf terms summed,
//! with the same `u`. Either way the bit is the same, so seeded runs do
//! not depend on the table.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rand::{Rng, RngExt};

use crate::config::SimulationConfig;

/// Draws a packet-loss rate for a link with the given congestion status:
/// uniform in `[t_l, 1)` if it is congested, in `[0, t_l)` if it is good.
pub fn sample_loss_rate(rng: &mut impl Rng, congested: bool, config: &SimulationConfig) -> f64 {
    let tl = config.link_congestion_threshold;
    if congested {
        // Uniform in [t_l, 1).
        tl + (1.0 - tl) * rng.random::<f64>()
    } else {
        // Uniform in [0, t_l).
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

/// Cells of a bracket table over delivery `q ∈ [0, 1]`. A power of two,
/// so `delivery · CELLS` and every boundary `i / CELLS` are exact.
const CELLS: usize = 1024;

/// How far, relative to a cell's bracket, `u` must lie for the table to
/// decide a draw. The table's sums and the summation's partial sums
/// should agree to about 1e-13 (one `exp` of an argument up to ~700, then
/// rounding), so the margin leaves four orders of magnitude to spare.
const MARGIN: f64 = 1e-9;

/// The sum [`LossTail::sample`] compares its uniform against, at every
/// cell boundary `q_i = i / CELLS` of delivery, for one
/// `(packets, cutoff)`.
///
/// Which sum that is depends on the side of the mode the cutoff falls on
/// at `q_i`: the upper tail `Σ_{k ≥ c} pmf` when the cutoff is above the
/// mode, the lower sum `Σ_{k < c} pmf` otherwise. "u below the upper tail"
/// and "u at or above the lower sum" have the same probability but are
/// different events of `u`, so a cell whose two boundaries lie on
/// different sides decides nothing. The side is a flag of its own: a sum
/// may underflow to zero, which leaves no sign to carry it.
struct Brackets {
    sums: Vec<f64>,
    upper: Vec<bool>,
}

impl Brackets {
    fn build(tail: &LossTail) -> Self {
        let (sums, upper) = (0..=CELLS)
            .map(|i| match i {
                // A dead path loses all `n ≥ c` packets: P(lost < c) = 0.
                0 => (0.0, false),
                // A lossless path loses none: P(lost ≥ c) = 0.
                CELLS => (0.0, true),
                _ => tail.converged_sum(i as f64 / CELLS as f64),
            })
            .unzip();
        Brackets { sums, upper }
    }
}

impl fmt::Debug for Brackets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Brackets")
            .field("cells", &CELLS)
            .finish_non_exhaustive()
    }
}

/// The process-wide bracket table of `tail`'s `(packets, cutoff)`, built
/// on first use. Simulators are built per trial, and some input
/// generators build one per chunk of snapshots, while a table depends on
/// nothing else: a paper-scale run needs one per hop count, ~9 KB each.
fn shared_brackets(tail: &LossTail) -> Arc<Brackets> {
    type Tables = Mutex<HashMap<(usize, usize), Arc<Brackets>>>;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    // An entry is inserted only once built, so a poisoned map is intact.
    let mut tables = TABLES
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    Arc::clone(
        tables
            .entry((tail.packets, tail.cutoff))
            .or_insert_with(|| Arc::new(Brackets::build(tail))),
    )
}

/// The event "a path loses at least `cutoff` of its `packets` probe
/// packets", drawn as one Bernoulli trial.
///
/// With delivery probability `q` and loss probability `ℓ = 1 − q`, the
/// number of lost packets is Binomial(`n`, `ℓ`), and [`LossTail::sample`]
/// returns `true` with probability `P(Bin(n, ℓ) ≥ cutoff)`, exactly. It
/// draws one uniform `u` and decides it against a shared bracket table
/// ([`LossTail::bracket`]), or, when `u` lies too close to the bracket, by
/// summing pmf terms outward from the cutoff. Both give the same answer
/// for the same `u`. No packet count is materialised.
#[derive(Debug, Clone)]
pub struct LossTail {
    packets: usize,
    cutoff: usize,
    /// `ln C(n, c)`, the first term of the upper tail.
    ln_choose_at: f64,
    /// `ln C(n, c − 1)`, the first term of the lower tail.
    ln_choose_below: f64,
    /// `None` when the cutoff is 0 or above `packets`, where no draw needs
    /// a table.
    brackets: Option<Arc<Brackets>>,
}

/// The pmf terms [`LossTail::summation`] walks at one delivery, outward
/// from the cutoff on the side away from the mode.
struct Terms {
    n: usize,
    /// The count of the current term.
    k: usize,
    term: f64,
    /// `ℓ / q` on the upper side, `q / ℓ` on the lower.
    odds: f64,
    /// Whether the walk sums the upper tail `k ≥ c`.
    upper: bool,
}

impl Terms {
    /// Steps one term outward and returns its ratio to the previous term,
    /// or `None` at the end of the support.
    fn advance(&mut self) -> Option<f64> {
        let (n, k) = (self.n, self.k);
        let ratio = if self.upper {
            if k == n {
                return None;
            }
            self.k += 1;
            (n - k) as f64 / (k + 1) as f64 * self.odds
        } else {
            if k == 0 {
                return None;
            }
            self.k -= 1;
            k as f64 / (n - k + 1) as f64 * self.odds
        };
        self.term *= ratio;
        Some(ratio)
    }
}

impl LossTail {
    /// The tail `P(lost ≥ cutoff)` over `packets` probe packets.
    fn new(packets: usize, cutoff: usize) -> Self {
        let mut tail = LossTail {
            packets,
            cutoff,
            ln_choose_at: 0.0,
            ln_choose_below: 0.0,
            brackets: None,
        };
        if (1..=packets).contains(&cutoff) {
            tail.ln_choose_at = ln_choose(packets, cutoff);
            tail.ln_choose_below = ln_choose(packets, cutoff - 1);
            tail.brackets = Some(shared_brackets(&tail));
        }
        tail
    }

    /// The tail at the cutoff of `threshold`: the fewest lost packets,
    /// out of `packets`, for which `1 − delivered / n > threshold`. A path
    /// is congested exactly when this event happens.
    pub fn for_threshold(packets: usize, threshold: f64) -> Self {
        Self::new(packets, congestion_cutoff(packets, threshold))
    }

    /// Draws whether a path with end-to-end `delivery` probability loses
    /// at least `cutoff` packets. Consumes exactly one uniform `u`, and
    /// decides it with [`LossTail::bracket`], or with the summation when
    /// the bracket is too close to call.
    pub fn sample(&self, delivery: f64, rng: &mut impl Rng) -> bool {
        let u: f64 = rng.random();
        self.bracket(u, delivery)
            .unwrap_or_else(|| self.summation(u, delivery))
    }

    /// Decides the draw of uniform `u ∈ [0, 1)` at `delivery` with one
    /// table lookup and two comparisons, or returns `None` when the table
    /// cannot.
    ///
    /// The sum the summation compares `u` against is monotone in delivery,
    /// so within cell `⌊delivery · CELLS⌋` it lies between the sums at the
    /// cell's two boundaries. `u` below the lower of them by more than a
    /// relative 1e-9 is below the sum; `u` above the higher by as much is
    /// above it. `None` means `u` is inside that margin, the cell straddles
    /// the mode's switch of side, or `delivery` is NaN. A returned answer
    /// always equals the summation's for the same `u`.
    pub fn bracket(&self, u: f64, delivery: f64) -> Option<bool> {
        if let Some(decided) = self.degenerate(delivery) {
            return Some(decided);
        }
        let table = self.brackets.as_deref()?;
        // Past the degenerate cases, `delivery` is in (0, 1) or NaN.
        if delivery.is_nan() {
            return None;
        }
        let i = (delivery * CELLS as f64) as usize;
        let upper = table.upper[i];
        if table.upper[i + 1] != upper {
            return None;
        }
        // The upper tail falls as delivery grows; the lower sum rises.
        let (low, high) = if upper {
            (table.sums[i + 1], table.sums[i])
        } else {
            (table.sums[i], table.sums[i + 1])
        };
        if u < low * (1.0 - MARGIN) {
            Some(upper)
        } else if u > high * (1.0 + MARGIN) {
            Some(!upper)
        } else {
            None
        }
    }

    /// The draw's outcome when the cutoff or `delivery` fixes it whatever
    /// `u` is: every path loses at least 0 packets and none loses `n + 1`,
    /// a dead path loses everything and a lossless one nothing.
    fn degenerate(&self, delivery: f64) -> Option<bool> {
        let (n, c) = (self.packets, self.cutoff);
        if c == 0 || delivery <= 0.0 {
            Some(c <= n)
        } else if c > n || 1.0 - delivery <= 0.0 {
            Some(false)
        } else {
            None
        }
    }

    /// Decides the draw of uniform `u` at `delivery` by summing pmf terms:
    /// the reference [`LossTail::bracket`] must agree with.
    ///
    /// Starting at the cutoff, the pmf terms fall off geometrically on the
    /// side away from the mode: the upper tail `k ≥ c` when `c` is above
    /// the mode (congested iff `u` is below it), the lower sum `k < c`
    /// otherwise (congested iff `u` is at or above it). The loop stops as
    /// soon as `u` is below the partial sum or above the partial sum plus
    /// the geometric bound on the terms not yet summed — a few terms, one
    /// `exp` and two `ln`s per call.
    pub(crate) fn summation(&self, u: f64, delivery: f64) -> bool {
        if let Some(decided) = self.degenerate(delivery) {
            return decided;
        }
        let mut terms = self.terms(delivery);
        let mut sum = 0.0;
        // Each pass sums one more term. The ratio between consecutive
        // terms only shrinks away from the cutoff, so once `terms.term` is
        // the first unsummed one, the unsummed rest is at most
        // `term / (1 − ratio)`.
        loop {
            sum += terms.term;
            if u < sum {
                return terms.upper;
            }
            let Some(ratio) = terms.advance() else {
                return !terms.upper;
            };
            if ratio < 1.0 && u >= sum + terms.term / (1.0 - ratio) {
                return !terms.upper;
            }
        }
    }

    /// The sum [`LossTail::summation`] compares `u` against at `delivery`,
    /// summed by the same recurrence until the unsummed rest no longer
    /// changes it, and whether it is the upper tail.
    fn converged_sum(&self, delivery: f64) -> (f64, bool) {
        let mut terms = self.terms(delivery);
        let mut sum = 0.0;
        loop {
            sum += terms.term;
            match terms.advance() {
                Some(ratio) if ratio >= 1.0 || sum + terms.term / (1.0 - ratio) != sum => {}
                _ => return (sum, terms.upper),
            }
        }
    }

    /// The first pmf term the summation adds at a non-degenerate
    /// `delivery`, on the side of the cutoff away from the mode.
    fn terms(&self, delivery: f64) -> Terms {
        let (n, c) = (self.packets, self.cutoff);
        let loss = 1.0 - delivery;
        let (ln_loss, ln_delivery) = (loss.ln(), delivery.ln());
        let mode = ((n + 1) as f64 * loss).floor() as usize;
        let upper = c > mode;
        let (k, ln_choose, odds) = if upper {
            (c, self.ln_choose_at, loss / delivery)
        } else {
            (c - 1, self.ln_choose_below, delivery / loss)
        };
        Terms {
            n,
            k,
            term: (ln_choose + k as f64 * ln_loss + (n - k) as f64 * ln_delivery).exp(),
            odds,
            upper,
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

    /// One tail per distinct `(packets, cutoff)` of hop counts `0..=40`,
    /// `n ∈ {1, 7, 200, 1000}` and `t_l ∈ {0.01, 0.05, 0.2}`.
    fn swept_tails() -> Vec<LossTail> {
        let mut seen = std::collections::BTreeSet::new();
        let mut tails = Vec::new();
        for tl in [0.01, 0.05, 0.2] {
            let config = SimulationConfig {
                link_congestion_threshold: tl,
                ..SimulationConfig::default()
            };
            for d in 0..=40 {
                for n in [1usize, 7, 200, 1000] {
                    let tail = LossTail::for_threshold(n, config.path_congestion_threshold(d));
                    if seen.insert((n, tail.cutoff)) {
                        tails.push(tail);
                    }
                }
            }
        }
        tails
    }

    #[test]
    fn brackets_agree_with_the_summation_on_every_cell() {
        let (mut decided, mut straddling) = (0usize, 0usize);
        for tail in swept_tails() {
            let (n, c) = (tail.packets, tail.cutoff);
            for delivery in [0.0, 1.0] {
                for u in [0.0, 0.5, 0.999] {
                    assert_eq!(
                        tail.bracket(u, delivery),
                        Some(tail.summation(u, delivery)),
                        "n={n} c={c} delivery={delivery} u={u}"
                    );
                }
            }
            let Some(table) = tail.brackets.as_deref() else {
                continue;
            };
            assert_eq!(tail.bracket(0.5, f64::NAN), None);
            for i in 0..CELLS {
                let (a, b) = (table.sums[i], table.sums[i + 1]);
                let (low, high) = (a.min(b), a.max(b));
                // Just outside the bracket widened by 1e-9, and just inside.
                let uniforms = [
                    0.0,
                    low * (1.0 - 2e-9),
                    low * (1.0 - 0.5e-9),
                    (low + high) / 2.0,
                    high * (1.0 + 0.5e-9),
                    high * (1.0 + 2e-9),
                ];
                let widened = low * (1.0 - 1e-9)..=high * (1.0 + 1e-9);
                let boundary = i as f64 / CELLS as f64;
                let midpoint = (i as f64 + 0.5) / CELLS as f64;
                for delivery in [boundary, midpoint] {
                    for u in uniforms.into_iter().filter(|&u| u < 1.0) {
                        let bracket = tail.bracket(u, delivery);
                        if let Some(bit) = bracket {
                            decided += 1;
                            assert_eq!(
                                bit,
                                tail.summation(u, delivery),
                                "n={n} c={c} cell={i} delivery={delivery} u={u}"
                            );
                        }
                        if delivery > 0.0 && table.upper[i] == table.upper[i + 1] {
                            // Exactly the uniforms inside the widened bracket fall back.
                            assert_eq!(
                                bracket.is_none(),
                                widened.contains(&u),
                                "n={n} c={c} cell={i} u={u}"
                            );
                        }
                    }
                }
                if table.upper[i] != table.upper[i + 1] {
                    straddling += 1;
                    for u in uniforms {
                        assert_eq!(tail.bracket(u, midpoint), None, "n={n} c={c} cell={i}");
                    }
                }
            }
        }
        assert!(decided > 0 && straddling > 0, "{decided} {straddling}");
    }

    #[test]
    fn seeded_random_draws_never_disagree_with_the_summation() {
        let tails = swept_tails();
        let mut rng = StdRng::seed_from_u64(22);
        let mut disagreements = 0;
        for _ in 0..1_000_000 {
            let tail = &tails[rng.random_range(0..tails.len())];
            // Half the deliveries anywhere, half around the cutoff's loss,
            // where the tail is neither 0 nor 1.
            let delivery = if rng.random_bool(0.5) {
                rng.random::<f64>()
            } else {
                let cutoff_loss = tail.cutoff as f64 / tail.packets as f64;
                1.0 - (2.0 * cutoff_loss * rng.random::<f64>()).min(1.0)
            };
            let u: f64 = rng.random();
            if tail
                .bracket(u, delivery)
                .is_some_and(|bit| bit != tail.summation(u, delivery))
            {
                disagreements += 1;
            }
        }
        assert_eq!(disagreements, 0);
    }

    #[test]
    fn tables_are_shared_per_packets_and_cutoff() {
        let table = |tail: &LossTail| tail.brackets.clone().expect("a table");
        let tail = LossTail::new(1000, 17);
        assert!(Arc::ptr_eq(&table(&tail), &table(&LossTail::new(1000, 17))));
        assert!(!Arc::ptr_eq(
            &table(&tail),
            &table(&LossTail::new(1000, 18))
        ));
        assert!(!Arc::ptr_eq(&table(&tail), &table(&LossTail::new(999, 17))));
        // Degenerate cutoffs need none.
        assert!(LossTail::new(1000, 0).brackets.is_none());
        assert!(LossTail::new(1000, 1001).brackets.is_none());
        // Debug output names the table without dumping it.
        assert!(format!("{tail:?}").len() < 200, "{tail:?}");
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
