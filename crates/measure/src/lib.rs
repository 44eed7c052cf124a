//! # netcorr-measure — end-to-end measurements and estimators
//!
//! The tomography algorithms never see link states directly; all they get
//! is, for every *snapshot* (time slot), which measurement paths were
//! observed to be congested. This crate provides:
//!
//! * [`PathObservations`] — the bit-packed container of those per-snapshot
//!   Boolean path observations, produced by the simulator (or, in a real
//!   deployment, by an active-probing measurement system). It stores one
//!   *path-major* lane per path (see [`bitset`]), 1 bit per cell, in
//!   exactly the layout of the v3 binary format.
//! * [`ProbabilityEstimator`] — empirical estimators of every probability
//!   the algorithms need: `P(Y_i = 0)` (a path is good), joint
//!   `P(Y_i = 0, Y_j = 0)`, `P(ψ(S) = ∅)` (all paths good) and
//!   `P(ψ(S) = ψ(A))` (a given set of paths are the only congested ones),
//!   all as [`PathCounts`] over borrowed lane words. Joint queries are
//!   AND/popcount kernels; exact-state and all-good queries are lane-major
//!   sweeps with early exits. Batch entry points serve the equation
//!   builder and the theorem algorithm without per-query rescans. The
//!   same type is the zero-copy tier: it borrows a heap store, a v3 block
//!   parsed in place, or a mapped file.
//! * [`StreamingEstimator`] — the online variant: accumulators updated in
//!   O(1) per pushed snapshot, so registered pair / pattern queries are
//!   O(1) counter reads with no lane scan (long-running deployments
//!   re-estimate per snapshot batch at constant incremental cost).
//! * [`PathCounts`] — the counts interface both estimators implement.
//!   Every probability, and every clamped log-probability the equations'
//!   right-hand sides are made of, is a provided method over those
//!   counts, written once, so the two estimators agree bit for bit.
//! * [`MappedObservations`] — an owning handle that memory-maps a v3
//!   observation file and hands out a [`ProbabilityEstimator`] over the
//!   mapped words (no word copy). The streaming estimator can seed its
//!   accumulators from a mapped history segment, which is how the
//!   daemon survives restarts without re-ingesting its stream.
//! * [`bitset::simd`] — the SIMD kernel ladder behind the joint-goodness
//!   queries: AVX-512 `vpopcntdq` kernels (8 words/instruction), AVX2
//!   popcount kernels (4 words/instruction), and a 4-wide unrolled
//!   portable fallback, selected per call by runtime feature detection
//!   and all bit-exact against each other and the scalar reference.
//! * [`mod@reference`] — the scalar (one-`bool`-per-cell) implementation kept
//!   as the executable specification; the differential property tests
//!   assert bit-exact agreement between it and the packed estimator.
//!
//! The estimators are plain relative frequencies over the snapshots; the
//! number of snapshots controls their accuracy, exactly as in the paper's
//! experiments.

#![warn(missing_docs)]
// `deny` rather than `forbid`: the SIMD kernel tiers in `bitset::simd`
// (runtime feature detection guards every `#[target_feature]` call), the
// raw mmap binding in `mapped`, and the byte→word reinterpretation in
// `ProbabilityEstimator::parse` are the explicitly allowed `unsafe`
// islands in this crate.
#![deny(unsafe_code)]

pub mod bitset;
pub mod counts;
pub mod error;
pub mod estimator;
pub mod mapped;
pub mod observation;
pub mod reference;
pub mod streaming;

pub use bitset::{BitLanes, BitLanesView};
pub use counts::PathCounts;
pub use error::MeasureError;
pub use estimator::ProbabilityEstimator;
pub use mapped::MappedObservations;
pub use observation::PathObservations;
pub use streaming::StreamingEstimator;
