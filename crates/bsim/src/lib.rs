//! # bsim — slot-level simulation of real-time fault-tolerant broadcast disks
//!
//! The paper's evaluation artefacts (the worst-case-delay table of Figure 7,
//! Lemmas 1 and 2, the bandwidth-overhead claims of Equations 1 and 2) are
//! analytic; this crate provides the simulation substrate that regenerates
//! them and stresses the implementation beyond the worked examples:
//!
//! * [`error`] — channel error models: Bernoulli (independent block-loss),
//!   Gilbert–Elliott bursts, targeted deterministic loss, and multi-channel
//!   banks: independent per-channel processes, cross-channel-correlated
//!   loss, and single-channel bursts.  They implement `bdisk`'s loss seam
//!   ([`bdisk::ErrorModel`] / [`bdisk::ChannelErrorModel`]), which is all
//!   the serving path knows of them;
//! * [`worst_case`] — an exact adversarial analysis of retrieval delay under
//!   a bounded number of reception failures (the generator of Figure 7 and
//!   the empirical check of Lemmas 1 and 2);
//! * [`workload`] — file-set and requirement generators: uniform synthetic
//!   mixes plus the paper's AWACS / IVHS motivating scenarios;
//! * [`stats`] — latency summaries (mean, max, percentiles) and deadline-miss
//!   accounting;
//! * [`sim`] — a Monte-Carlo retrieval simulator driving a
//!   [`bdisk::BroadcastServer`] against an error model.
//!
//! Nothing in the serving path (`brt`, `bnet`) depends on this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod sim;
pub mod stats;
pub mod workload;
pub mod worst_case;

pub use error::{
    BernoulliErrors, CorrelatedChannels, GilbertElliott, IndependentChannels, OnChannel,
    TargetedLoss,
};
pub use sim::{RetrievalSimulator, SimulationConfig, SimulationReport};
pub use stats::{LatencySummary, MissReport};
pub use workload::{awacs_scenario, ivhs_scenario, RequirementGenerator, WorkloadConfig};
pub use worst_case::{worst_case_latency, worst_case_table, WorstCaseAnalysis};
