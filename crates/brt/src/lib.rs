//! # brt — the slot-clocked concurrent broadcast runtime
//!
//! The paper's serving model is a broadcast server that emits one block per
//! channel per slot, forever, while any number of independent clients tune
//! in.  The lower crates provide everything *but* the clock and the
//! concurrency: verified programs (`bcore`/`pinwheel`), dispersed contents
//! and the epoch-swap primitive (`bdisk`), transition planning (`bmode`).
//! This crate provides the runtime that puts them on the air:
//!
//! * [`SlotClock`] — pacing: [`WallClock`] for real slot periods,
//!   [`ManualClock`] for deterministic tests and CI;
//! * [`Engine`] / [`Subscriber`] — the one seam: the thing being served
//!   (the `rtbdisk` facade's `Station`) and the one client interface (its
//!   `Retrieval`).  Both slot drivers below advance a subscriber through
//!   [`Subscriber`] and resolve mode transitions through a single epoch
//!   rule — wait for a flip, listen, or fetch the swap note and retune or
//!   cancel — that differs between them only in how the note is fetched;
//! * [`drive`] — the synchronous slot driver (the facade's
//!   `run_until_complete` family is a thin adapter over it); notes come
//!   inline from [`Engine::note_for`];
//! * [`Runtime`] — the threaded server loop: one serving thread publishes
//!   each slot **once** onto a shared [`BroadcastRing`]; N concurrent
//!   client tasks read it through private cursors without cloning payloads
//!   (a true broadcast: server cost is independent of the fleet size),
//!   each feeding the engine's ticket and sampling its own
//!   [`bdisk::ChannelErrorModel`].  Backpressure is by overwrite — a reader
//!   that falls more than the ring's capacity behind self-accounts the
//!   lost span as lag/erasures ([`Subscriber::erase`]); the server never
//!   stalls on a slow client.  Every subscription is seated; notes come
//!   from the serving core, which every call locks on its caller's thread;
//! * [`SwapScheduler`] — plays a [`bmode::ModeSchedule`] against a running
//!   runtime: `prepare` off-thread, `swap` at the planned slot boundary;
//! * [`SlotSink`] — the transport-facing fan-out hook: every served slot's
//!   [`SlotCell`] is published once to each attached sink, and every swap
//!   the serving loop lands is announced to it with the bank
//!   ([`SlotSink::mode_changed`]).  A network transport is a *sink*, not a
//!   subscriber — the medium fans out for free, exactly the paper's
//!   broadcast model (see the `bnet` crate).
//!
//! The crate is std-only (threads, channels, condvars — no external
//! dependencies) and deliberately generic: it never names a facade type,
//! so the machinery is unit-testable against a stub engine.  It links no
//! simulator either: the loss seam is `bdisk`'s and mode schedules are
//! `bmode`'s, so a network station built on it carries neither `bsim`'s
//! models nor its analysers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod drive;
mod engine;
mod ring;
mod runtime;
mod scheduler;
mod sink;

pub use bobs::{Event, Telemetry};
pub use clock::{ManualClock, SlotClock, WallClock};
pub use drive::{drive, DriveError};
pub use engine::{Engine, Subscriber, SwapNote};
pub use ring::{BroadcastRing, LaneCell, RingRead, SlotCell};
pub use runtime::{
    Runtime, RuntimeConfig, RuntimeController, RuntimeError, RuntimeStats, Subscription,
    SubscriptionStats,
};
pub use scheduler::{run_schedule, ScheduleOutcome, SwapScheduler};
pub use sink::SlotSink;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{resolve_epoch, Tuning};
    use bdisk::{
        BroadcastFile, BroadcastProgram, BroadcastServer, EpochBank, ErrorModel, FileSet,
        FlatOrder, LatencyVector, NoErrors, TransmissionRef,
    };
    use bmode::{ModeSchedule, ModeSpec, SwapPolicy};
    use ida::{Dispersal, FileId};
    use std::collections::BTreeMap;
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    /// A minimal engine over an `EpochBank`: enough to exercise the runtime
    /// machinery without the facade.  `prepare` resolves mode names through
    /// a fixed catalog of server banks; swaps always cancel in-flight
    /// subscribers of flipped channels (no transparent re-subscription).
    #[derive(Clone)]
    struct BankEngine {
        bank: EpochBank,
        catalog: BTreeMap<String, Vec<Arc<BroadcastServer>>>,
        mode: String,
        /// Blocks of its file a ticket needs before it completes.
        threshold: usize,
    }

    /// Counts received blocks of one file; completes at the threshold.
    #[derive(Debug)]
    struct BankTicket {
        file: FileId,
        channel: usize,
        epoch: u64,
        request_slot: usize,
        received: usize,
        threshold: usize,
        erased: usize,
        cancelled_by: Option<String>,
    }

    impl Subscriber for BankTicket {
        fn file(&self) -> FileId {
            self.file
        }
        fn channel(&self) -> usize {
            self.channel
        }
        fn epoch(&self) -> u64 {
            self.epoch
        }
        fn request_slot(&self) -> usize {
            self.request_slot
        }
        fn is_resolved(&self) -> bool {
            self.cancelled_by.is_some() || self.received >= self.threshold
        }
        fn observe(&mut self, tx: Option<TransmissionRef<'_>>, ok: bool) -> bool {
            if let Some(tx) = tx {
                if ok && tx.block.file() == self.file {
                    self.received += 1;
                    return self.received >= self.threshold;
                }
            }
            false
        }
        fn erase(&mut self, count: usize) {
            self.erased += count;
        }
        fn apply(&mut self, note: &SwapNote) {
            match note {
                SwapNote::Cancel { mode } => self.cancelled_by = Some(mode.clone()),
                SwapNote::Retune { channel, epoch, .. } => {
                    self.channel = *channel;
                    self.epoch = *epoch;
                }
            }
        }
    }

    impl Engine for BankEngine {
        type Ticket = BankTicket;
        type Prepared = Vec<Arc<BroadcastServer>>;
        type Report = u64;
        type Error = String;

        fn bank(&self) -> &EpochBank {
            &self.bank
        }
        fn subscribe(&self, file: FileId, at_slot: usize) -> Result<BankTicket, String> {
            let channel = self
                .bank
                .channel_of(file)
                .ok_or_else(|| format!("unknown file {file}"))?;
            Ok(BankTicket {
                file,
                channel,
                epoch: self.bank.current_epoch_of(channel).unwrap_or(0),
                request_slot: at_slot,
                received: 0,
                threshold: self.threshold,
                erased: 0,
                cancelled_by: None,
            })
        }
        fn note_for(&self, _file: FileId, _channel: usize, _epoch: u64) -> SwapNote {
            SwapNote::Cancel {
                mode: self.mode.clone(),
            }
        }
        fn retire(&mut self, slot: usize, _epoch: u64) {
            self.bank.retire_before(slot);
        }
        fn snapshot(&self) -> Self {
            self.clone()
        }
        fn prepare(&self, mode: &ModeSpec) -> Result<Self::Prepared, String> {
            self.catalog
                .get(mode.name())
                .cloned()
                .ok_or_else(|| format!("unknown mode `{}`", mode.name()))
        }
        fn swap(
            &mut self,
            prepared: Self::Prepared,
            at_slot: usize,
            _policy: SwapPolicy,
        ) -> Result<u64, String> {
            self.mode = "swapped".to_string();
            self.bank
                .swap(at_slot, prepared)
                .map(|applied| applied.epoch)
                .map_err(|e| e.to_string())
        }
    }

    fn server_for(ids: &[u32]) -> Arc<BroadcastServer> {
        let files = FileSet::new(
            ids.iter()
                .map(|&i| BroadcastFile::new(FileId(i), format!("F{i}"), 2, 8).with_dispersal(4))
                .collect(),
        )
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        Arc::new(BroadcastServer::with_synthetic_contents(&files, program).unwrap())
    }

    fn engine() -> BankEngine {
        let mut catalog = BTreeMap::new();
        catalog.insert("other".to_string(), vec![server_for(&[9])]);
        BankEngine {
            bank: EpochBank::new(vec![server_for(&[1, 2])]).unwrap(),
            catalog,
            mode: "initial".to_string(),
            threshold: 2,
        }
    }

    /// An engine whose tickets can never complete, so only a swap, an
    /// unsubscribe or a shutdown ends them.
    fn insatiable_engine() -> BankEngine {
        BankEngine {
            threshold: usize::MAX,
            ..engine()
        }
    }

    #[test]
    fn the_epoch_rule_waits_listens_retunes_and_cancels() {
        let retune = |channel, epoch| SwapNote::Retune {
            channel,
            epoch,
            dispersal: Arc::new(Dispersal::new(2, 4).unwrap()),
            latencies: LatencyVector::uniform_zero_faults(8),
        };
        let cancel = SwapNote::Cancel {
            mode: "next".to_string(),
        };
        struct Case {
            name: &'static str,
            /// What each lane serves this slot (`None` = dark).
            lanes: Vec<Option<u64>>,
            /// The subscriber's tuned (channel, epoch) going in.
            tuned: (usize, u64),
            /// The notes the source hands out, in request order; once it
            /// runs dry the source fails (the server is gone).
            notes: Vec<SwapNote>,
            expect: Result<Tuning, &'static str>,
            /// The (channel, epoch) pairs notes were requested for.
            requested: Vec<(usize, u64)>,
            /// The subscriber's tuned (channel, epoch) coming out.
            retuned: (usize, u64),
        }
        let cases = vec![
            Case {
                name: "dark lane",
                lanes: vec![None],
                tuned: (0, 0),
                notes: vec![],
                expect: Ok(Tuning::Wait),
                requested: vec![],
                retuned: (0, 0),
            },
            Case {
                name: "lane this cell never had",
                lanes: vec![Some(0)],
                tuned: (3, 0),
                notes: vec![],
                expect: Ok(Tuning::Wait),
                requested: vec![],
                retuned: (3, 0),
            },
            Case {
                name: "older epoch still on the air",
                lanes: vec![Some(0)],
                tuned: (0, 1),
                notes: vec![],
                expect: Ok(Tuning::Wait),
                requested: vec![],
                retuned: (0, 1),
            },
            Case {
                name: "equal epoch",
                lanes: vec![Some(7), Some(2)],
                tuned: (1, 2),
                notes: vec![],
                expect: Ok(Tuning::Listen(1)),
                requested: vec![],
                retuned: (1, 2),
            },
            Case {
                name: "newer epoch, retuned onto a channel already serving it",
                lanes: vec![Some(1), Some(1)],
                tuned: (0, 0),
                notes: vec![retune(1, 1)],
                expect: Ok(Tuning::Listen(1)),
                requested: vec![(0, 0)],
                retuned: (1, 1),
            },
            Case {
                name: "two unseen swaps apply one after the other",
                lanes: vec![Some(2), Some(2)],
                tuned: (0, 0),
                notes: vec![retune(0, 1), retune(1, 2)],
                expect: Ok(Tuning::Listen(1)),
                requested: vec![(0, 0), (0, 1)],
                retuned: (1, 2),
            },
            Case {
                name: "retuned onto a channel that has not flipped yet",
                lanes: vec![Some(1), Some(0)],
                tuned: (0, 0),
                notes: vec![retune(1, 1)],
                expect: Ok(Tuning::Wait),
                requested: vec![(0, 0)],
                retuned: (1, 1),
            },
            Case {
                name: "newer epoch, cancelled",
                lanes: vec![Some(1)],
                tuned: (0, 0),
                notes: vec![cancel],
                expect: Ok(Tuning::Cancelled),
                requested: vec![(0, 0)],
                retuned: (0, 0),
            },
            Case {
                name: "the note source is gone",
                lanes: vec![Some(1)],
                tuned: (0, 0),
                notes: vec![],
                expect: Err("gone"),
                requested: vec![(0, 0)],
                retuned: (0, 0),
            },
        ];
        for case in cases {
            let name = case.name;
            let mut ticket = engine().subscribe(FileId(1), 0).unwrap();
            (ticket.channel, ticket.epoch) = case.tuned;
            let mut notes = case.notes.into_iter();
            let mut requested = Vec::new();
            let got = resolve_epoch(
                &mut ticket,
                |channel| case.lanes.get(channel).copied().flatten(),
                |channel, epoch| {
                    requested.push((channel, epoch));
                    notes.next().ok_or("gone")
                },
            );
            assert_eq!(got, case.expect, "{name}");
            assert_eq!(requested, case.requested, "{name}");
            assert_eq!((ticket.channel, ticket.epoch), case.retuned, "{name}");
            let cancelled = got == Ok(Tuning::Cancelled);
            assert_eq!(ticket.cancelled_by.is_some(), cancelled, "{name}");
        }
    }

    #[test]
    fn manual_clock_runtime_delivers_and_completes() {
        let clock = ManualClock::new();
        let runtime = Runtime::spawn(engine(), clock.clone(), RuntimeConfig::default());
        let sub = runtime.subscribe_with(FileId(1), 0, NoErrors).unwrap();
        clock.advance(64);
        let ticket = sub.join();
        assert_eq!(ticket.received, 2);
        assert!(ticket.cancelled_by.is_none());
        let stats = runtime.stats().unwrap();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.active_subscribers, 0);
        assert!(stats.slots_served >= 2);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn attached_sinks_see_every_served_slot_once_and_every_landed_swap() {
        use std::sync::Mutex;
        type PublishedSlot = (usize, Vec<(usize, u64, FileId)>);
        #[derive(Default)]
        struct Record {
            published: Vec<PublishedSlot>,
            /// `(bank epoch, slots published so far)` per `mode_changed`.
            modes: Vec<(u64, usize)>,
        }
        struct Recorder(Arc<Mutex<Record>>);
        impl SlotSink for Recorder {
            fn publish(&mut self, cell: &SlotCell) {
                let lanes = cell.lanes.iter().enumerate().filter_map(|(channel, lane)| {
                    Some((channel, lane.epoch?, lane.block.as_ref()?.file()))
                });
                self.0
                    .lock()
                    .unwrap()
                    .published
                    .push((cell.slot, lanes.collect()));
            }
            fn mode_changed(&mut self, bank: &EpochBank) {
                let mut record = self.0.lock().unwrap();
                let seen = record.published.len();
                record.modes.push((bank.epoch(), seen));
            }
        }
        let record = Arc::new(Mutex::new(Record::default()));
        let clock = ManualClock::new();
        let runtime = Runtime::spawn_with_telemetry(
            engine(),
            clock.clone(),
            RuntimeConfig::default(),
            vec![Box::new(Recorder(record.clone()))],
            Telemetry::new(),
        );
        // The sink knows the mode on the air before any slot is served.
        assert_eq!(record.lock().unwrap().modes, vec![(0, 0)]);
        clock.advance(16);
        loop {
            if runtime.stats().unwrap().slots_served >= 16 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // A swap through the bare runtime handle: the sink hears of it
        // before the requester does, and before slot 16 goes out.
        let before = runtime.snapshot().unwrap();
        let prepared = before
            .prepare(&ModeSpec::new("other").file(bcore_spec_stub()))
            .unwrap();
        runtime
            .swap_at(prepared, 16, SwapPolicy::Immediate)
            .unwrap();
        assert_eq!(record.lock().unwrap().modes, vec![(0, 0), (1, 16)]);
        let engine = runtime.shutdown().unwrap();
        // Nobody was listening when the swap landed, so the served slots'
        // history is retired; the snapshot from before the swap still has it.
        assert_eq!(engine.bank.retired_before(), 16);
        let record = record.lock().unwrap();
        // One publication per served slot, in slot order, live lanes only.
        assert_eq!(record.published.len(), 16);
        for (i, (slot, lanes)) in record.published.iter().enumerate() {
            assert_eq!(*slot, i);
            for &(channel, epoch, file) in lanes {
                assert_eq!(epoch, before.bank.epoch_at(channel, *slot).unwrap());
                let tx = before.bank.transmit_ref(channel, *slot).unwrap();
                assert_eq!(tx.block.file(), file);
            }
        }
        // The single-channel test bank is never idle across a full cycle.
        assert!(record.published.iter().any(|(_, lanes)| !lanes.is_empty()));
    }

    #[test]
    fn a_slot_is_counted_served_only_after_its_sinks_publish_it() {
        struct Probe {
            served: bobs::Counter,
            seen: mpsc::Sender<(usize, u64)>,
        }
        impl SlotSink for Probe {
            fn publish(&mut self, cell: &SlotCell) {
                let _ = self.seen.send((cell.slot, self.served.get()));
            }
        }
        let telemetry = Telemetry::new();
        let (tx, seen) = mpsc::channel();
        let probe = Probe {
            served: telemetry.registry().counter("brt_slots_served"),
            seen: tx,
        };
        let clock = ManualClock::new();
        let runtime = Runtime::spawn_with_telemetry(
            engine(),
            clock.clone(),
            RuntimeConfig::default(),
            vec![Box::new(probe)],
            telemetry,
        );
        clock.advance(8);
        for expected in 0..8 {
            let (slot, counted) = seen
                .recv_timeout(Duration::from_secs(10))
                .expect("every released slot reaches the sink");
            assert_eq!(slot, expected);
            assert_eq!(
                counted, slot as u64,
                "slot {slot} counted before it went out"
            );
        }
        runtime.shutdown().unwrap();
    }

    #[test]
    fn unknown_files_are_rejected_at_subscribe() {
        let clock = ManualClock::new();
        let runtime = Runtime::spawn(engine(), clock.clone(), RuntimeConfig::default());
        let err = runtime.subscribe_with(FileId(42), 0, NoErrors).unwrap_err();
        assert!(matches!(err, RuntimeError::Engine(_)));
        runtime.shutdown().unwrap();
    }

    #[test]
    fn scheduled_swaps_apply_at_the_planned_slot_and_cancel_subscribers() {
        let clock = ManualClock::new();
        let runtime = Runtime::spawn(insatiable_engine(), clock.clone(), RuntimeConfig::default());
        // A subscriber that can never finish before the swap and is tuned
        // to the channel the swap flips.
        let doomed = runtime.subscribe_with(FileId(1), 0, NoErrors).unwrap();
        let schedule = ModeSchedule::new().at(
            10,
            ModeSpec::new("other").file(bcore_spec_stub()),
            SwapPolicy::Immediate,
        );
        let scheduler = run_schedule(runtime.controller(), schedule);
        // Hold the clock until the prepared swap is queued with the server,
        // so it demonstrably applies at its *planned* slot.
        loop {
            if runtime.stats().unwrap().pending_swaps == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        clock.advance(40);
        let outcomes = scheduler.join();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].applied(), "swap failed: {:?}", outcomes[0]);
        assert_eq!(doomed.join().cancelled_by.as_deref(), Some("swapped"));
        // The bank flipped exactly at the planned slot — and kept the slots
        // before it: the reader starting at slot 0 was live when it landed.
        let engine = runtime.shutdown().unwrap();
        assert_eq!(engine.bank.retired_before(), 0);
        assert_eq!(engine.bank.epoch_at(0, 9), Some(0));
        assert_eq!(engine.bank.epoch_at(0, 10), Some(1));
    }

    /// `ModeSpec` insists on at least the shape of a file spec; the stub
    /// engine ignores it (modes resolve through the catalog).
    fn bcore_spec_stub() -> bcore::GeneralizedFileSpec {
        bcore::GeneralizedFileSpec::new(FileId(9), 1, vec![8]).unwrap()
    }

    #[test]
    fn past_due_swaps_apply_while_the_clock_is_parked() {
        let clock = ManualClock::new();
        let runtime = Runtime::spawn(engine(), clock.clone(), RuntimeConfig::default());
        clock.advance(20);
        loop {
            if runtime.stats().unwrap().slots_served >= 20 {
                break; // drained: the server is parked waiting for slot 20
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Planned for slot 5, which is already behind the cursor: the swap
        // must apply at the current boundary without another clock tick —
        // this call hangs forever if past-due swaps wait for Ready.
        let prepared = runtime
            .snapshot()
            .unwrap()
            .prepare(&ModeSpec::new("other").file(bcore_spec_stub()))
            .unwrap();
        let epoch = runtime.swap_at(prepared, 5, SwapPolicy::Immediate).unwrap();
        assert_eq!(epoch, 1);
        let engine = runtime.shutdown().unwrap();
        // Applied at the serving cursor (slot 20), never rewriting history
        // — which, with no reader live, is retired up to that cursor.
        assert_eq!(engine.bank.frontier(), 20);
        assert_eq!(engine.bank.retired_before(), 20);
        assert_eq!(engine.bank.epoch_at(0, 19), None);
        assert_eq!(engine.bank.epoch_at(0, 20), Some(1));
    }

    /// Records the thread every `mode_changed` ran on.
    struct ModeWatch(Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>);

    impl SlotSink for ModeWatch {
        fn publish(&mut self, _cell: &SlotCell) {}
        fn mode_changed(&mut self, _bank: &EpochBank) {
            self.0.lock().unwrap().push(std::thread::current().id());
        }
    }

    type ModeLog = Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>;

    /// A runtime with a [`ModeWatch`] sink under a parked `ManualClock`.
    fn watched_runtime() -> (Runtime<BankEngine>, ManualClock, ModeLog) {
        let modes = ModeLog::default();
        let clock = ManualClock::new();
        let runtime = Runtime::spawn_with_telemetry(
            engine(),
            clock.clone(),
            RuntimeConfig::default(),
            vec![Box::new(ModeWatch(modes.clone()))],
            Telemetry::new(),
        );
        (runtime, clock, modes)
    }

    fn other_mode(runtime: &Runtime<BankEngine>) -> Vec<Arc<BroadcastServer>> {
        runtime
            .snapshot()
            .unwrap()
            .prepare(&ModeSpec::new("other").file(bcore_spec_stub()))
            .unwrap()
    }

    fn wait_for(runtime: &Runtime<BankEngine>, done: impl Fn(RuntimeStats) -> bool) {
        while !done(runtime.stats().unwrap()) {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_due_swap_lands_on_the_callers_thread() {
        let (runtime, _clock, modes) = watched_runtime();
        let here = std::thread::current().id();
        assert_eq!(*modes.lock().unwrap(), [here], "announced at spawn");
        // Slot 0 is the parked serving cursor, so the swap is due at once;
        // the clock never moves, so no serving step can land it.
        let prepared = other_mode(&runtime);
        let epoch = runtime.swap_at(prepared, 0, SwapPolicy::Immediate).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(runtime.snapshot().unwrap().bank.epoch(), 1);
        assert_eq!(
            *modes.lock().unwrap(),
            [here, here],
            "one mode_changed, on the calling thread"
        );
        let registry = runtime.telemetry().registry();
        assert_eq!(registry.counter("brt_swaps_applied").get(), 1);
        runtime.shutdown().unwrap();
    }

    #[test]
    fn a_future_dated_swap_flips_at_its_planned_slot_once_the_clock_gets_there() {
        let (runtime, clock, modes) = watched_runtime();
        let prepared = other_mode(&runtime);
        let controller = runtime.controller();
        let swap =
            std::thread::spawn(move || controller.swap_at(prepared, 10, SwapPolicy::Immediate));
        wait_for(&runtime, |s| s.pending_swaps == 1);
        clock.advance(9);
        wait_for(&runtime, |s| s.slots_served >= 9);
        // One slot short of its plan: still pending, the old mode on the air.
        let stats = runtime.stats().unwrap();
        assert_eq!((stats.pending_swaps, stats.swaps_applied), (1, 0));
        assert_eq!(runtime.snapshot().unwrap().bank.epoch(), 0);
        assert!(!swap.is_finished());
        clock.advance(1);
        assert_eq!(swap.join().unwrap().unwrap(), 1);
        assert_eq!(modes.lock().unwrap().len(), 2);
        let engine = runtime.shutdown().unwrap();
        assert_eq!(engine.bank.frontier(), 10);
        assert_eq!(engine.bank.epoch_at(0, 10), Some(1));
    }

    #[test]
    fn a_past_due_swap_lands_after_a_pending_swap_whose_slot_the_cursor_passed() {
        let (runtime, clock, modes) = watched_runtime();
        let first = other_mode(&runtime);
        let controller = runtime.controller();
        let planned =
            std::thread::spawn(move || controller.swap_at(first, 10, SwapPolicy::Immediate));
        wait_for(&runtime, |s| s.pending_swaps == 1);
        clock.advance(12);
        wait_for(&runtime, |s| s.slots_served >= 12);
        // The cursor moved past slot 10 under the core's lock, landing the
        // planned swap on its way; one queued now for a slot behind both
        // lands after it, whether or not its requester has woken yet.
        let second = other_mode(&runtime);
        let epoch = runtime.swap_at(second, 5, SwapPolicy::Immediate).unwrap();
        assert_eq!(epoch, 2);
        assert_eq!(planned.join().unwrap().unwrap(), 1);
        assert_eq!(modes.lock().unwrap().len(), 3);
        let engine = runtime.shutdown().unwrap();
        assert_eq!(engine.bank.epoch(), 2);
        assert_eq!(engine.bank.frontier(), 12);
    }

    #[test]
    fn slow_consumers_lag_instead_of_stalling_the_server() {
        let clock = ManualClock::new();
        let runtime = Runtime::spawn(
            insatiable_engine(),
            clock.clone(),
            RuntimeConfig { queue_capacity: 1 },
        );
        /// A lossless receiver that takes its time over every block.
        struct Slow;
        impl ErrorModel for Slow {
            fn is_lost(&mut self, _transmission: TransmissionRef<'_>) -> bool {
                std::thread::sleep(Duration::from_millis(2));
                false
            }
        }
        let sub = runtime.subscribe_with(FileId(1), 0, Slow).unwrap();
        clock.advance(512);
        // Wait until the server worked through the released slots — it must
        // not wait for the reader — and until the reader, whose thread may
        // not even have been scheduled by then, has looked at the ring and
        // found itself lapped: detached before its first read, it would
        // have no lag to book.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let stats = runtime.stats().unwrap();
            if stats.slots_served >= 512 && stats.lagged_slots > 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "a capacity-1 ring against 512 fast slots must lag: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        runtime.unsubscribe(&sub);
        let ticket = sub.join();
        // The reader has booked every overwritten span it observed before
        // detaching; the fleet counters must agree with the ticket's view.
        let stats = runtime.stats().unwrap();
        assert_eq!(ticket.erased as u64, stats.lag_erasures);
        runtime.shutdown().unwrap();
    }

    /// Parks the reader inside its delivery of the listed slots until the
    /// test resumes it.
    struct PauseAt {
        slots: Vec<usize>,
        arrived: mpsc::Sender<usize>,
        resume: mpsc::Receiver<()>,
    }

    impl ErrorModel for PauseAt {
        fn is_lost(&mut self, transmission: TransmissionRef<'_>) -> bool {
            if self.slots.contains(&transmission.slot) {
                self.arrived.send(transmission.slot).unwrap();
                self.resume.recv().unwrap();
            }
            false
        }
    }

    const PAUSE_BUDGET: Duration = Duration::from_secs(10);

    /// A runtime that has served slots `0..40` with a swap landed at slot 5,
    /// and one insatiable reader of the flipped channel parked inside slot 4
    /// with cell 5 already in its batch: the next thing it does on `resume`
    /// is ask the serving core for its swap note.
    fn reader_about_to_ask_for_a_note() -> (
        Runtime<BankEngine>,
        Subscription<BankTicket>,
        mpsc::Sender<()>,
    ) {
        let clock = ManualClock::new();
        let runtime = Runtime::spawn(insatiable_engine(), clock.clone(), RuntimeConfig::default());
        let (arrived, arrivals) = mpsc::channel();
        let (resume, resumed) = mpsc::channel();
        let pause = PauseAt {
            slots: vec![0, 4],
            arrived,
            resume: resumed,
        };
        let sub = runtime.subscribe_with(FileId(1), 0, pause).unwrap();
        let prepared = runtime
            .snapshot()
            .unwrap()
            .prepare(&ModeSpec::new("other").file(bcore_spec_stub()))
            .unwrap();
        let controller = runtime.controller();
        let swap =
            std::thread::spawn(move || controller.swap_at(prepared, 5, SwapPolicy::Immediate));
        while runtime.stats().unwrap().pending_swaps != 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Only slot 0 exists when the reader first reads, so its first batch
        // is that one cell; it parks there while the rest are published.
        clock.advance(1);
        assert_eq!(arrivals.recv_timeout(PAUSE_BUDGET), Ok(0));
        clock.advance(39);
        // A stats answer comes at a run boundary, once the ring holds every
        // slot it counts (`slots_served()` may count a run's slots before
        // the ring publishes them).
        while runtime.stats().unwrap().slots_served < 40 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(swap.join().unwrap().unwrap(), 1);
        // Its second batch is therefore cells 1..40 in one read: no detach
        // or close check stands between slot 4 and the flipped cell 5.
        resume.send(()).unwrap();
        assert_eq!(arrivals.recv_timeout(PAUSE_BUDGET), Ok(4));
        (runtime, sub, resume)
    }

    fn join_within_budget(sub: Subscription<BankTicket>) -> BankTicket {
        let deadline = Instant::now() + PAUSE_BUDGET;
        while !sub.is_finished() {
            assert!(
                Instant::now() < deadline,
                "the reader hung waiting for its swap note"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        sub.join()
    }

    #[test]
    fn a_reader_wanting_a_swap_note_joins_when_unsubscribed_or_shut_down() {
        // (a) Unsubscribed: the core has retired the reader by the time it
        // asks, so it gets no note and stops.
        let (runtime, sub, resume) = reader_about_to_ask_for_a_note();
        runtime.unsubscribe(&sub);
        // Unsubscribe is a call on the core: it has landed once it returns.
        assert_eq!(runtime.stats().unwrap().active_subscribers, 0);
        resume.send(()).unwrap();
        let ticket = join_within_budget(sub);
        assert!(!ticket.is_resolved());
        assert_eq!(ticket.epoch, 0, "no note was applied");
        assert_eq!(runtime.stats().unwrap().cancelled, 0);
        runtime.shutdown().unwrap();

        // (b) Shut down: the serving core is gone by the time the reader
        // asks.
        let (runtime, sub, resume) = reader_about_to_ask_for_a_note();
        let engine = runtime.shutdown().unwrap();
        assert_eq!(engine.bank.epoch_at(0, 5), Some(1));
        resume.send(()).unwrap();
        let ticket = join_within_budget(sub);
        assert!(!ticket.is_resolved());
        assert_eq!(ticket.epoch, 0, "no note was applied");
    }
}
