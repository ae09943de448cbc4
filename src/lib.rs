//! # rtbdisk — fault-tolerant real-time broadcast disks
//!
//! One facade over the full pipeline of the paper: generalized file
//! specifications → pinwheel conditions → schedule → AIDA block layout →
//! broadcast → fault-tolerant retrieval.
//!
//! * [`Broadcast::builder`] runs the design pipeline and returns a
//!   [`Station`] owning the file set, the *verified* broadcast program and
//!   the dispersed contents.
//! * [`Station::subscribe`] hands out [`Retrieval`] handles that internally
//!   carry the correct reconstruction threshold and [`ida::Dispersal`]
//!   configuration — the paper's "any `m` distinct blocks suffice" guarantee
//!   cannot be broken by caller-side parameter re-derivation.
//! * [`Station::run_until_complete`] advances any number of concurrent
//!   retrievals in a single pass over the broadcast;
//!   [`Station::stream`] exposes the raw slot sequence.
//! * [`Error`] unifies every stage's error type, so the whole pipeline is
//!   `?`-able.
//! * Every station is scheduled by the pinwheel cascade
//!   ([`pinwheel::AutoScheduler`]: harmonic → double-integer → Sx → exact).
//!   [`SchedulerChoice`] names each scheduler on its own, for callers that
//!   hand one to a [`bcore::BdiskDesigner`] directly.
//! * `Broadcast::builder().channels(k)` (or `.auto_channels()`) shards the
//!   file set across `k` slot-synchronized broadcast channels, each with its
//!   own pinwheel schedule under its own density ≤ 1 budget;
//!   [`Station::subscribe`] transparently tunes each [`Retrieval`] to the
//!   channel carrying its file, and per-channel loss is expressible with
//!   [`IndependentChannels`] / [`CorrelatedChannels`] / [`OnChannel`].
//! * A station is *mutable at the program level*: [`Station::prepare_mode`]
//!   designs a target [`ModeSpec`] (with [`ModeProfile`] redundancy
//!   overrides) off the hot path, and [`Station::swap`] installs it with an
//!   epoch-bumped, slot-aligned per-channel atomic swap — unchanged
//!   channels keep broadcasting byte-identically, and in-flight
//!   [`Retrieval`]s survive, transparently re-subscribe, or resolve to
//!   [`Error::ModeChanged`] per the [`SwapPolicy`] (immediate vs drain).
//! * [`Station::serve_concurrent`] puts the station on the air for real: a
//!   slot-clocked serving thread ([`WallClock`] pacing, [`ManualClock`] for
//!   deterministic tests) publishes each slot once onto a shared ring that
//!   any number of concurrent client tasks read ([`RuntimeHandle`] — subscribe,
//!   unsubscribe, scheduled swaps via [`ModeSchedule`], stats, graceful
//!   shutdown); a slow client drops slots as recorded erasures instead of
//!   stalling the server.
//! * [`Station::serve_network`] additionally puts the broadcast on the
//!   *wire*: every served slot goes out once per channel as a UDP datagram
//!   to every joined peer ([`NetServing`]), and a standalone
//!   [`NetClient`] on the far side turns lost or corrupt datagrams into
//!   erasures and reconstructs files byte-identical to in-process serving
//!   — lossy UDP is exactly the erasure channel the paper models.
//!
//! ## Quickstart
//!
//! ```
//! use rtbdisk::{BernoulliErrors, Broadcast, FileId, GeneralizedFileSpec};
//!
//! fn main() -> Result<(), rtbdisk::Error> {
//!     let station = Broadcast::builder()
//!         .file(GeneralizedFileSpec::new(FileId(1), 2, vec![12, 16, 20])?)
//!         .file(GeneralizedFileSpec::new(FileId(2), 1, vec![6, 9])?)
//!         .build()?;
//!     let outcome = station.retrieve(FileId(2), 0, &mut BernoulliErrors::new(0.10, 7))?;
//!     println!("retrieved {} bytes in {} slots", outcome.data.len(), outcome.latency());
//!     Ok(())
//! }
//! ```
//!
//! ## Crate map
//!
//! The per-crate APIs stay public for power users:
//!
//! | crate | layer |
//! |-------|-------|
//! | [`gf256`] | GF(2⁸) field / matrix substrate |
//! | [`ida`] | Rabin's IDA and the adaptive AIDA |
//! | [`pinwheel`] | pinwheel task systems, schedulers, verifier |
//! | [`bdisk`] | broadcast files, programs, server, client sessions, epoch bank, the loss seam |
//! | [`bcore`] | conditions, pinwheel algebra, planner, designer |
//! | [`bmode`] | mode specifications, online re-design, transition planning, mode schedules |
//! | [`bsim`] | error models, worst-case analysis, Monte-Carlo simulation (off the serving path) |
//! | [`bobs`] | telemetry: metrics registry, lateness histograms, event trace, exporters |
//! | [`brt`] | slot clocks, the threaded broadcast runtime, the swap scheduler |
//! | [`bnet`] | wire format, UDP station server, TCP control plane, socket clients |
//! | [`bfault`] | deterministic fault injection: seeded impaired UDP relay, partitions, restarts |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broadcast;
mod error;
mod mode;
mod net;
mod retrieval;
mod runtime;
mod station;

pub use broadcast::{Broadcast, BroadcastBuilder};
pub use error::Error;
pub use mode::{PreparedMode, SwapReport};
pub use net::NetServing;
pub use retrieval::{Retrieval, RetrievalResolution};
pub use runtime::{ClientHandle, RuntimeHandle, ScheduleHandle};
pub use station::{Station, Stream};

// The handful of cross-crate types every facade user touches.
pub use bcore::{GeneralizedFileSpec, ShardPlan, ShardPlanner};
pub use bdisk::{
    ChannelErrorModel, EpochBank, ErrorModel, LatencyVector, NoErrors, RetrievalOutcome,
    TransmissionRef,
};
pub use bmode::{
    ChannelTransition, ModeEvent, ModePlanner, ModeSchedule, ModeSpec, SwapPolicy, TransitionPlan,
};
pub use bnet::{
    ControlClient, MetricsFormat, NetClient, NetConfig, NetError, NetStats, RecoveryConfig,
};
pub use bobs::{Event, Telemetry};
pub use brt::{
    ManualClock, RuntimeConfig, RuntimeStats, ScheduleOutcome, SlotClock, SubscriptionStats,
    WallClock,
};
pub use bsim::{
    BernoulliErrors, CorrelatedChannels, GilbertElliott, IndependentChannels, OnChannel,
    TargetedLoss,
};
pub use ida::{FileId, ModeProfile, RedundancyPolicy};
pub use pinwheel::SchedulerChoice;

// Full per-crate APIs, re-exported for power users.
pub use bauth;
pub use bcore;
pub use bdisk;
pub use bfault;
pub use bmode;
pub use bnet;
pub use bobs;
pub use brt;
pub use bsim;
pub use gf256;
pub use ida;
pub use pinwheel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_shape_retrieves_through_a_lossy_channel() {
        let station = Broadcast::builder()
            .file(GeneralizedFileSpec::new(FileId(1), 2, vec![12, 16, 20]).unwrap())
            .file(GeneralizedFileSpec::new(FileId(2), 1, vec![6, 9]).unwrap())
            .build()
            .unwrap();
        let outcome = station
            .retrieve(FileId(2), 0, &mut BernoulliErrors::new(0.10, 7))
            .unwrap();
        assert!(!outcome.data.is_empty());
        assert!(outcome.latency() >= 1);
    }

    #[test]
    fn many_concurrent_retrievals_advance_in_one_pass() {
        let station = Broadcast::builder()
            .file(GeneralizedFileSpec::new(FileId(1), 2, vec![10, 14]).unwrap())
            .file(GeneralizedFileSpec::new(FileId(2), 1, vec![6, 8]).unwrap())
            .build()
            .unwrap();
        // A small fleet: both files, staggered request slots.
        let mut fleet: Vec<Retrieval> = (0..8)
            .map(|i| {
                let file = if i % 2 == 0 { FileId(1) } else { FileId(2) };
                station.subscribe(file, i * 3).unwrap()
            })
            .collect();
        let outcomes = station
            .run_until_complete(&mut fleet, &mut NoErrors)
            .unwrap();
        assert_eq!(outcomes.len(), 8);
        for (retrieval, outcome) in fleet.iter().zip(&outcomes) {
            assert_eq!(outcome.file, retrieval.file());
            assert!(retrieval.is_complete());
            // Fault-free retrievals meet the fault-free deadline.
            assert_eq!(retrieval.within_declared_latency(outcome), Some(true));
        }
    }

    #[test]
    fn stream_exposes_the_slot_sequence() {
        let station = Broadcast::builder()
            .file(GeneralizedFileSpec::new(FileId(1), 1, vec![4]).unwrap())
            .build()
            .unwrap();
        let cycle = station.program().data_cycle();
        let slots: Vec<_> = station.stream(0).take(2 * cycle).collect();
        assert_eq!(slots.len(), 2 * cycle);
        // The program wraps: slot t and t + cycle carry the same entry kind.
        for (a, b) in slots.iter().zip(slots.iter().skip(cycle)) {
            assert_eq!(a.1.is_some(), b.1.is_some());
        }
    }

    #[test]
    fn subscribe_rejects_unknown_files() {
        let station = Broadcast::builder()
            .file(GeneralizedFileSpec::new(FileId(1), 1, vec![4]).unwrap())
            .build()
            .unwrap();
        assert!(matches!(
            station.subscribe(FileId(99), 0),
            Err(Error::UnknownFile(FileId(99)))
        ));
    }

    #[test]
    fn stalled_retrievals_error_instead_of_spinning() {
        let station = Broadcast::builder()
            .file(GeneralizedFileSpec::new(FileId(1), 2, vec![10]).unwrap())
            .listen_cap(50)
            .build()
            .unwrap();
        // A channel that loses everything can never complete.
        struct AllLost;
        impl ErrorModel for AllLost {
            fn is_lost(&mut self, _tx: TransmissionRef<'_>) -> bool {
                true
            }
        }
        let mut retrieval = station.subscribe(FileId(1), 0).unwrap();
        let err = station
            .run_until_complete(std::slice::from_mut(&mut retrieval), &mut AllLost)
            .unwrap_err();
        assert!(matches!(err, Error::RetrievalStalled { .. }));
    }

    #[test]
    fn the_listen_cap_is_per_retrieval_not_per_fleet() {
        // A retrieval requested after the earliest one must still get the
        // full cap of listening: subscribe one client at slot 0 and one
        // beyond the cap; on a lossless channel both must complete.
        let station = Broadcast::builder()
            .file(GeneralizedFileSpec::new(FileId(1), 2, vec![10]).unwrap())
            .listen_cap(50)
            .build()
            .unwrap();
        let mut fleet = vec![
            station.subscribe(FileId(1), 0).unwrap(),
            station.subscribe(FileId(1), 60).unwrap(),
        ];
        let outcomes = station
            .run_until_complete(&mut fleet, &mut NoErrors)
            .unwrap();
        assert!(outcomes.iter().all(|o| o.errors_observed == 0));
        assert!(outcomes[1].completion_slot >= 60);

        // Dead regions between request slots are skipped, not scanned: a
        // subscriber a million slots out completes without the driver
        // walking every intervening slot (this test would visibly hang
        // otherwise in debug builds... it must stay fast).
        let mut fleet = vec![
            station.subscribe(FileId(1), 0).unwrap(),
            station.subscribe(FileId(1), 1_000_000_000).unwrap(),
        ];
        let outcomes = station
            .run_until_complete(&mut fleet, &mut NoErrors)
            .unwrap();
        assert!(outcomes[1].completion_slot >= 1_000_000_000);

        // Gap slots nobody listens to never consume an error-model sample
        // (a stateful model must not be advanced by phantom slots).
        #[derive(Default)]
        struct RecordSlots(Vec<usize>);
        impl ErrorModel for RecordSlots {
            fn is_lost(&mut self, tx: TransmissionRef<'_>) -> bool {
                self.0.push(tx.slot);
                false
            }
        }
        let mut fleet = vec![
            station.subscribe(FileId(1), 0).unwrap(),
            station.subscribe(FileId(1), 1_000_000_000).unwrap(),
        ];
        let mut recorder = RecordSlots::default();
        let outcomes = station
            .run_until_complete(&mut fleet, &mut recorder)
            .unwrap();
        let first_done = outcomes[0].completion_slot;
        assert!(recorder
            .0
            .iter()
            .all(|&s| s <= first_done || s >= 1_000_000_000));
    }

    #[test]
    fn station_plugs_into_the_simulator() {
        let station = Broadcast::builder()
            .file(GeneralizedFileSpec::new(FileId(1), 2, vec![10, 14]).unwrap())
            .build()
            .unwrap();
        let mut sim = bsim::RetrievalSimulator::new(
            &station,
            NoErrors,
            bsim::SimulationConfig {
                retrievals_per_file: 25,
                ..Default::default()
            },
        );
        let report = sim.run_file(FileId(1), 2);
        assert_eq!(report.latency.count(), 25);
        assert_eq!(report.errors_observed, 0);
    }
}
