//! # bmode — mutable broadcast disks
//!
//! The paper's application scenarios assume the broadcast program changes
//! between *modes of operation*: an AWACS platform boosts the redundancy of
//! the nearby-aircraft object in combat mode and scales it down for landing;
//! an IVHS server re-prioritizes incident alerts between rush hour and
//! off-peak.  The AIDA layer models the per-mode redundancy choice
//! ([`ida::ModeProfile`]); this crate builds the *reconfiguration* subsystem
//! on top of it:
//!
//! * [`ModeSpec`] — a named target mode: a set of
//!   [`bcore::GeneralizedFileSpec`]s plus an optional [`ida::ModeProfile`]
//!   whose redundancy policies are folded into per-file dispersal-width
//!   floors;
//! * [`ModePlanner`] — re-runs the [`bcore::MultiChannelDesigner`] pipeline
//!   for the target mode (reusing the [`bcore::ShardPlanner`] seam) and
//!   diffs the result against the *current* per-channel programs;
//! * [`TransitionPlan`] — the diff: which channels keep broadcasting
//!   byte-identically, which are reprogrammed, added or dropped; which files
//!   move channels, appear, or disappear; and the *drain horizon* — the
//!   Lemma 3 bound on how long in-flight retrievals of affected files can
//!   still be running;
//! * [`SwapPolicy`] — what happens to in-flight retrievals of affected
//!   files: flip immediately (cancelling what cannot be carried over) or
//!   drain first (defer the flip past the drain horizon so anything within
//!   its declared fault tolerance completes under the old program);
//! * [`ModeSchedule`] — timed swaps: a slot-ordered list of
//!   [`ModeEvent`]s (target mode, policy, planned slot).
//!
//! The crate is deliberately mechanism-free: it plans transitions but does
//! not serve them.  The `bdisk::EpochBank` executes the per-channel swap,
//! the `rtbdisk` facade (`Station::prepare_mode` / `Station::swap`) wires
//! the two together, and the `brt` swap scheduler plays a schedule against
//! a running station.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod planner;
mod schedule;
mod spec;

pub use planner::{
    diff, ChannelTransition, ChannelView, CurrentMode, ModePlan, ModePlanner, TransitionPlan,
};
pub use schedule::{ModeEvent, ModeSchedule};
pub use spec::ModeSpec;

/// What happens to in-flight retrievals whose channel a swap reprograms.
///
/// Either way, retrievals on *untouched* channels are never affected, and a
/// retrieval whose file survives the transition with identical dispersal
/// parameters and contents is transparently re-subscribed rather than
/// cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapPolicy {
    /// Flip the changed channels at the requested slot.  In-flight
    /// retrievals whose file is dropped or re-dispersed are cancelled with a
    /// `ModeChanged` error the next time they are driven.
    Immediate,
    /// Defer the flip past the transition's *drain horizon*: by Lemma 3,
    /// every in-flight retrieval of an affected file that stays within its
    /// declared fault tolerance completes under the old program before the
    /// channels flip.  Only retrievals exceeding their declared tolerance
    /// (for which no latency was ever promised) can still observe the swap.
    Drain,
}

impl core::fmt::Display for SwapPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SwapPolicy::Immediate => write!(f, "immediate"),
            SwapPolicy::Drain => write!(f, "drain"),
        }
    }
}
