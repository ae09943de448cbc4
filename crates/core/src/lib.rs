//! # bcore — generalized fault-tolerant real-time broadcast disks
//!
//! This crate implements the paper's contribution proper:
//!
//! * **Broadcast-file and pinwheel conditions** ([`Bc`], [`Pc`],
//!   [`NiceConjunct`]) — the formal model of Section 4.1: a generalized
//!   broadcast file `Fᵢ` has a size `mᵢ` and a latency vector
//!   `d⃗ᵢ = [d⁽⁰⁾, …, d⁽ʳ⁾]`, and a broadcast program satisfies
//!   `bc(i, mᵢ, d⃗ᵢ)` iff it transmits at least `mᵢ + j` blocks of `Fᵢ` in
//!   every window of `d⁽ʲ⁾` slots, for every fault level `j`.
//! * **The pinwheel algebra** ([`algebra`]) — rules R0–R5 of Figure 8, each
//!   as an executable, individually tested transformation.
//! * **Transformation rules TR1/TR2 and the conversion-to-nice strategy**
//!   ([`convert_candidates`]) — Section 4.2: turning a conjunct of conditions on one
//!   file into a *nice* conjunct (one condition per scheduled task) of low
//!   density, reproducing Examples 2–6.
//! * **Bandwidth planning** ([`Planner`]) — Equations 1 and 2: the
//!   `⌈10/7 · Σ mᵢ/Tᵢ⌉` sufficient bandwidth for real-time (and
//!   fault-tolerant) broadcast disks, plus an exact searched minimum for
//!   comparison.
//! * **The program designer** ([`BdiskDesigner`]) — the end-to-end pipeline from
//!   generalized file specifications to a verified broadcast program:
//!   conditions → nice conjunct → pinwheel schedule → block layout.
//! * **Sharded design** ([`ShardPlanner`], [`MultiChannelDesigner`]) — the
//!   multi-channel generalization: partition the file set across `k`
//!   channels by greedy density balancing (each channel under its own
//!   density ≤ 1 budget) and run the single-channel designer per shard.
//!
//! ## Quick example
//!
//! ```
//! use bcore::{BdiskDesigner, GeneralizedFileSpec};
//! use ida::FileId;
//!
//! // Two files on a broadcast disk: F1 wants 2 blocks in every 10 slots and
//! // tolerates one fault if given 12 slots; F2 wants 1 block in every 7 slots.
//! let specs = vec![
//!     GeneralizedFileSpec::new(FileId(1), 2, vec![10, 12]).unwrap(),
//!     GeneralizedFileSpec::new(FileId(2), 1, vec![7]).unwrap(),
//! ];
//! let design = BdiskDesigner::default().design(&specs).unwrap();
//! assert!(design.density <= 1.0);
//! // The emitted program provably satisfies every broadcast-file condition.
//! assert!(design.verification.is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
mod condition;
mod designer;
mod planner;
mod sharding;
mod transform;

pub use condition::{Bc, ConditionError, NiceConjunct, Pc};
pub use designer::{
    lemma_3_conditions, BdiskDesigner, DesignError, DesignReport, GeneralizedFileSpec,
};
pub use planner::{BandwidthPlan, FileRequirement, Planner, PlannerError};
pub use sharding::{MultiChannelDesigner, MultiChannelReport, ShardPlan, ShardPlanner};
pub use transform::{convert_candidates, Candidate, CandidateKind, TaskIdAllocator};
