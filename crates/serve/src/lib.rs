//! # netcorr-serve — the online tomography daemon
//!
//! The offline pipeline infers per-link congestion probabilities from a
//! complete set of end-to-end observations. This crate closes the loop
//! for a live deployment: a long-running daemon that
//!
//! 1. **ingests** observation snapshots as framed v3 wire-format blocks
//!    over a socket (TCP or Unix domain), feeding a
//!    [`netcorr_measure::StreamingEstimator`] at O(1) cost per snapshot;
//! 2. **re-infers** on demand through one cached
//!    [`netcorr_core::InferenceContext`]: its right-hand side refreshes in
//!    `O(#equations)` from the streaming counters, and the solve reuses
//!    the equation structure, the independence selection and the dense QR
//!    factorization (or sparse indicator matrix). Each refresh is one
//!    [`netcorr_core::InferenceContext::reinfer`]: the dense plans (the
//!    default) ignore its seed, and only the sparse plan starts CGLS from
//!    the previous refresh's solution;
//! 3. **answers** link-state and probability queries over a small
//!    line-oriented request protocol ([`protocol`]), with per-request
//!    `ERR` replies instead of connection drops and an in-band graceful
//!    `SHUTDOWN`;
//! 4. **persists** its observation history (opt-in via `--history`):
//!    every ingest atomically rewrites a v3 history file, and on restart
//!    the file is memory-mapped through
//!    [`netcorr_measure::MappedObservations`] and attached to the
//!    estimator as a zero-copy base segment — the daemon resumes with
//!    bit-identical accumulators without re-ingesting its stream.
//!
//! On the dense solve plans (instances up to the solver's
//! `dense_threshold`) every answer the daemon gives is **bit-identical**
//! to the offline batch inference over the same accumulated
//! observations; the daemon changes latency, not results.
//!
//! The layers are usable separately: [`service::TomographyService`] is
//! the engine (no I/O), [`protocol`] parses/dispatches request lines
//! (shared by the server and the benchmarks), [`server::Server`] is the
//! socket front-end, and [`client::Client`] is a typed client used by
//! the tests, the examples and operators' scripts. The `netcorr-serve`
//! binary wires them together behind a CLI.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod error;
pub mod faults;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{Client, ClientConfig, ClientError, InferReply, ReconnectingClient};
pub use error::ServeError;
pub use faults::{FaultPlan, FaultProfile, FaultyHistoryWriter, FaultyStream};
pub use protocol::{Reply, Request};
pub use server::{ListenAddr, Server, ServerConfig};
pub use service::{HistoryStatus, ServiceStatus, TomographyService};
