//! The threaded broadcast runtime: a slot-clocked serving loop on its own
//! thread, publishing each slot **once** onto a shared broadcast ring that
//! any number of concurrent client tasks read through private cursors.
//!
//! ## Architecture
//!
//! ```text
//!              commands (subscribe / lag / note / swap / stats / shutdown)
//!   Runtime ────────────────────────────────────────────┐
//!      │                                                ▼
//!      │ spawn                                   ┌─────────────┐
//!      ├──────────────────────────────────────▶  │ server loop │ owns the Engine
//!      │                                         └──────┬──────┘
//!      │                                                │ each cell ──▶ every SlotSink
//!      │ subscribe_with(..)                             │ then the run, once
//!      ▼                                                ▼
//!   Subscription ◀── client task ◀─ cursor ─▶ [ BroadcastRing ] ◀─ cursor ─ …
//! ```
//!
//! * The **server loop** waits on the [`SlotClock`] for a run of ready
//!   slots, applies any swap whose planned slot has arrived, and advances
//!   the run one of two ways.  When nothing can observe it (no live
//!   subscriber, no sink) the ring skips it.  Otherwise it is served:
//!   each slot's lanes are snapshotted into one [`SlotCell`]; each cell,
//!   in slot order, goes to every [`SlotSink`] and is then counted in
//!   `brt_slots_served`; and the run is published to the [`BroadcastRing`]
//!   under one lock with one wake of the readers it satisfies —
//!   independent of the fleet size.  The server never touches
//!   per-subscriber state on the data path.
//! * Each **client task** holds a cursor into the ring, resolves its own
//!   epoch transitions against the published lane epochs, samples its own
//!   reception-error process, and feeds its retrieval.  A reader that falls
//!   more than the ring's capacity behind observes the overwrite and
//!   self-accounts the skipped span as lag/erasures (the server replays the
//!   span's schedule off the data path to count exactly which dropped slots
//!   carried the subscriber's file).
//! * Swap notes are requested by the reader at the exact cell where it
//!   observes its channel's epoch move and answered on a reply channel
//!   inside the request — so a subscriber applies a mode transition at
//!   precisely the right point of its delivery stream and epochs never
//!   desync.  A departed subscriber or a shut-down server drops the reply
//!   sender, which ends the waiting reader.
//! * Only the runtime knows who can still read, so after each landed swap
//!   it hands the engine a **retention floor** ([`Engine::retire`]): the
//!   earliest slot a live reader may replay and the oldest epoch one is
//!   tuned to.  History behind it is dropped, so a station refreshed
//!   without end stays flat in memory.
//! * Then it **publishes** a snapshot of the engine, before the swap's
//!   requester hears back: only swaps change the engine, so
//!   [`RuntimeController::snapshot`] clones the published one instead of
//!   asking the serving thread.

use crate::clock::{ClockPoll, SlotClock, WakeSignal};
use crate::engine::{resolve_epoch, Engine, Subscriber, SwapNote, Tuning};
use crate::ring::{BatchRead, BroadcastRing, LaneCell, SlotCell};
use crate::sink::SlotSink;
use bdisk::{ChannelErrorModel, TransmissionRef};
use bmode::SwapPolicy;
use bobs::{Counter, Event, Gauge, Histogram, Registry, Telemetry};
use ida::FileId;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cells a client task drains from the broadcast ring per lock acquisition:
/// enough to amortise locking while it catches up to a free-running server,
/// small enough that detach/close checks stay prompt.
const READ_BATCH: usize = 256;

/// Ready slots the serving loop transmits per command-queue poll while no
/// swap is pending: long enough to amortise the poll out of the per-slot
/// cost when the clock free-runs, short enough that a command waits at
/// most a few microseconds' worth of slots for its boundary.
const SERVE_BURST: usize = 64;

/// Tunables of a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Capacity of the shared broadcast ring, in slots: a subscriber more
    /// than this many slots behind the serving cursor has the overwritten
    /// span dropped and recorded as lag / erasures (never stalling the
    /// server).
    pub queue_capacity: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            queue_capacity: 1024,
        }
    }
}

/// Shared per-subscriber counters (written by the server loop and the
/// client task, read through the subscription handle).  These are
/// unregistered [`bobs::Counter`] handles: per-subscription metrics are
/// unbounded-cardinality, so they live on the subscription rather than
/// under a name in the registry — the fleet-level aggregates are what the
/// registry carries.
#[derive(Debug, Default)]
pub(crate) struct SubscriberCounters {
    delivered: Counter,
    lagged_slots: Counter,
    lag_erasures: Counter,
}

/// A point-in-time snapshot of one subscriber's delivery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubscriptionStats {
    /// Data slots the subscriber's client task consumed off the ring.
    pub delivered: u64,
    /// Data slots dropped because the subscriber lagged.
    pub lagged_slots: u64,
    /// Dropped slots that carried a block of the subscriber's file.
    pub lag_erasures: u64,
}

/// A point-in-time snapshot of the whole runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Slots the server has transmitted (or skipped with nobody to hear
    /// them).  Answered at a run boundary, it is also the next slot the
    /// server will serve.
    pub slots_served: u64,
    /// Currently live subscribers.
    pub active_subscribers: usize,
    /// Subscriptions ever seated.
    pub total_subscriptions: u64,
    /// Subscriptions that resolved complete.
    pub completed: u64,
    /// Subscriptions cancelled by a mode swap.
    pub cancelled: u64,
    /// Data slots dropped across all subscribers (lag).
    pub lagged_slots: u64,
    /// Lag-dropped slots that carried a block of the lagging subscriber's
    /// file (recorded as erasures client-side).
    pub lag_erasures: u64,
    /// Mode swaps applied by the serving loop.
    pub swaps_applied: u64,
    /// Swaps handed to the serving loop but not yet applied (their planned
    /// slot has not arrived).
    pub pending_swaps: usize,
}

/// Why a runtime operation failed.
#[derive(Debug)]
pub enum RuntimeError<EE> {
    /// The runtime has shut down (or its server thread is gone).
    Closed,
    /// The engine rejected the operation.
    Engine(EE),
}

impl<EE: core::fmt::Display> core::fmt::Display for RuntimeError<EE> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RuntimeError::Closed => write!(f, "the broadcast runtime has shut down"),
            RuntimeError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl<EE: core::fmt::Debug + core::fmt::Display> std::error::Error for RuntimeError<EE> {}

/// What a successful `Command::Subscribe` replies with: the runtime-assigned
/// subscriber id, the engine's ticket, and the server's serving cursor at
/// registration (slots before it are gone — a broadcast does not rewind).
type Seat<E> = (u64, <E as Engine>::Ticket, usize);

enum Command<E: Engine> {
    Subscribe {
        file: FileId,
        at_slot: usize,
        counters: Arc<SubscriberCounters>,
        detached: Arc<AtomicBool>,
        reply: mpsc::Sender<Result<Seat<E>, E::Error>>,
    },
    Unsubscribe {
        id: u64,
    },
    Resolved {
        id: u64,
        cancelled: bool,
    },
    /// A reader found its cursor overwritten: account slots `[from, to)` on
    /// its tuned `(channel, epoch)` as lag, off the data path.
    Lag {
        id: u64,
        channel: usize,
        epoch: u64,
        from: usize,
        to: usize,
        reply: mpsc::Sender<(u64, u64)>,
    },
    /// A reader observed its channel's epoch move past `epoch`: reply with
    /// the engine's disposition (retune or cancel).  The reply sender is
    /// dropped unanswered when the subscriber has departed.
    Note {
        id: u64,
        channel: usize,
        epoch: u64,
        reply: mpsc::Sender<SwapNote>,
    },
    Swap {
        prepared: E::Prepared,
        at_slot: usize,
        policy: SwapPolicy,
        reply: mpsc::Sender<Result<E::Report, E::Error>>,
    },
    Stats {
        reply: mpsc::Sender<RuntimeStats>,
    },
    Shutdown,
}

/// The engine as of the last landed swap, published by the serving loop for
/// [`RuntimeController::snapshot`]; `None` once the loop has ended.
type Published<E> = Arc<Mutex<Option<E>>>;

/// A cheap, cloneable handle for talking to a running server loop — what
/// the [`crate::SwapScheduler`] and client tasks hold.
pub struct RuntimeController<E: Engine> {
    commands: mpsc::Sender<Command<E>>,
    waker: Arc<WakeSignal>,
    published: Published<E>,
}

impl<E: Engine> Clone for RuntimeController<E> {
    fn clone(&self) -> Self {
        RuntimeController {
            commands: self.commands.clone(),
            waker: self.waker.clone(),
            published: self.published.clone(),
        }
    }
}

impl<E: Engine> RuntimeController<E> {
    fn send(&self, command: Command<E>) -> Result<(), RuntimeError<E::Error>> {
        self.commands
            .send(command)
            .map_err(|_| RuntimeError::Closed)?;
        self.waker.wake();
        Ok(())
    }

    /// Sends the command `build` makes around a fresh reply sender and waits
    /// for the serving thread's answer.  Fails when the runtime is gone, or
    /// when the server dropped the request unanswered (a note request of a
    /// departed subscriber, or anything still queued at shutdown).
    fn ask<R>(
        &self,
        build: impl FnOnce(mpsc::Sender<R>) -> Command<E>,
    ) -> Result<R, RuntimeError<E::Error>> {
        let (reply, answer) = mpsc::channel();
        self.send(build(reply))?;
        answer.recv().map_err(|_| RuntimeError::Closed)
    }

    /// A clone of the engine as of the last landed swap — what a
    /// preparation thread designs the next mode against.  The serving loop
    /// publishes its engine when it starts and after each landed swap (and
    /// the retirement that follows it), before the swap's requester hears
    /// back, so this never waits on the serving thread: it clones what was
    /// published.  Nothing but a swap changes what a preparation reads, and
    /// a preparation from before a later swap is still refused by the
    /// engine's own staleness check.  Fails once the runtime has shut down.
    pub fn snapshot(&self) -> Result<E, RuntimeError<E::Error>> {
        let published = self.published.lock().expect("published engine lock");
        published
            .as_ref()
            .map(Engine::snapshot)
            .ok_or(RuntimeError::Closed)
    }

    /// Schedules `prepared` to be swapped in when the serving loop reaches
    /// `at_slot` (immediately, if it is already past it) and blocks until
    /// the swap was applied, returning the engine's report.
    pub fn swap_at(
        &self,
        prepared: E::Prepared,
        at_slot: usize,
        policy: SwapPolicy,
    ) -> Result<E::Report, RuntimeError<E::Error>> {
        self.ask(|reply| Command::Swap {
            prepared,
            at_slot,
            policy,
            reply,
        })?
        .map_err(RuntimeError::Engine)
    }

    /// Fleet-level counters as of the next command-processing point.
    pub fn stats(&self) -> Result<RuntimeStats, RuntimeError<E::Error>> {
        self.ask(|reply| Command::Stats { reply })
    }
}

/// One live subscription: a handle to the client task reading the broadcast
/// ring.  [`Subscription::join`] hands the engine's ticket back once the
/// retrieval resolves (or the runtime shuts down).
#[derive(Debug)]
pub struct Subscription<T> {
    id: u64,
    counters: Arc<SubscriberCounters>,
    task: JoinHandle<T>,
}

impl<T> Subscription<T> {
    /// The runtime-assigned subscriber id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// A snapshot of the subscriber's delivery counters.
    pub fn stats(&self) -> SubscriptionStats {
        SubscriptionStats {
            delivered: self.counters.delivered.get(),
            lagged_slots: self.counters.lagged_slots.get(),
            lag_erasures: self.counters.lag_erasures.get(),
        }
    }

    /// `true` once the client task has finished ([`Subscription::join`] will
    /// not block).
    pub fn is_finished(&self) -> bool {
        self.task.is_finished()
    }

    /// Waits for the client task and returns the ticket as the task left it
    /// (resolved, or in flight if the subscriber was detached or the runtime
    /// shut down).
    pub fn join(self) -> T {
        self.task.join().expect("runtime client task panicked")
    }
}

/// A running slot-clocked broadcast runtime over an [`Engine`].
///
/// Spawning moves the engine onto a dedicated serving thread; the `Runtime`
/// value is the control surface (subscribe / swap / stats / shutdown).
/// Dropping it without [`Runtime::shutdown`] closes the clock and lets the
/// server wind down detached.
pub struct Runtime<E: Engine> {
    controller: RuntimeController<E>,
    clock: SlotClock,
    config: RuntimeConfig,
    ring: Arc<BroadcastRing>,
    telemetry: Telemetry,
    /// The serving loop's `brt_slots_served`, read without a round-trip.
    slots_served: Counter,
    server: Option<JoinHandle<E>>,
}

impl<E: Engine> core::fmt::Debug for RuntimeController<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RuntimeController").finish_non_exhaustive()
    }
}

impl<E: Engine> core::fmt::Debug for Runtime<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Runtime")
            .field("config", &self.config)
            .field("running", &self.server.is_some())
            .finish_non_exhaustive()
    }
}

impl<E: Engine> Runtime<E> {
    /// Spawns the serving thread over `engine`, paced by `clock`.
    pub fn spawn(engine: E, clock: impl Into<SlotClock>, config: RuntimeConfig) -> Self {
        Self::spawn_with_telemetry(engine, clock, config, Vec::new(), Telemetry::new())
    }

    /// [`Runtime::spawn`] with transport-facing fan-out sinks attached: each
    /// served slot's [`SlotCell`] is published once to every sink (on the
    /// serving thread, before the broadcast ring publishes the same cell
    /// with the rest of its run) — the seam a network transport plugs
    /// into.
    ///
    /// The runtime records into the caller-owned [`Telemetry`] handle — the
    /// facade passes one shared handle so the runtime, the network fan-out
    /// and the control plane all land in a single scrapable registry.  Recording (histograms + event trace)
    /// stays whatever the handle says; counters and gauges always count.
    pub fn spawn_with_telemetry(
        engine: E,
        clock: impl Into<SlotClock>,
        config: RuntimeConfig,
        mut sinks: Vec<Box<dyn SlotSink>>,
        telemetry: Telemetry,
    ) -> Self {
        // Before the serving thread exists: a sink knows the mode on the
        // air by the time the caller holds the handle.
        for sink in &mut sinks {
            sink.mode_changed(engine.bank());
        }
        let clock = clock.into();
        let waker = Arc::new(WakeSignal::new());
        clock.register_waker(waker.clone());
        let ring = Arc::new(BroadcastRing::new(config.queue_capacity));
        let published = Arc::new(Mutex::new(Some(engine.snapshot())));
        let (tx, rx) = mpsc::channel();
        let server = {
            let clock = clock.clone();
            let waker = waker.clone();
            let (ring, telemetry, published) = (ring.clone(), telemetry.clone(), published.clone());
            std::thread::Builder::new()
                .name("brt-server".to_string())
                .spawn(move || {
                    let state = ServerState::new(ring, telemetry, published);
                    server_loop(engine, clock, waker, rx, state, sinks)
                })
                .expect("the broadcast server thread spawns")
        };
        Runtime {
            controller: RuntimeController {
                commands: tx,
                waker,
                published,
            },
            clock,
            config,
            ring,
            slots_served: telemetry.registry().counter("brt_slots_served"),
            telemetry,
            server: Some(server),
        }
    }

    /// The telemetry handle the runtime records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A cloneable controller for off-thread preparation / scheduling.
    pub fn controller(&self) -> RuntimeController<E> {
        self.controller.clone()
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Slots the server has transmitted so far: the `brt_slots_served`
    /// counter [`RuntimeStats::slots_served`] reads too.  A slot counts once
    /// every sink has it, before its run reaches the ring, so a reader that
    /// sees it served also sees what the sinks counted for it.  Unlike
    /// [`Runtime::stats`] this never round-trips a command through the
    /// serving thread, so it is safe to poll tightly (a stats round-trip per
    /// poll preempts the server it is watching); a stats answer comes at a
    /// run boundary, once the ring holds every slot it counts.
    pub fn slots_served(&self) -> u64 {
        self.slots_served.get()
    }

    /// Subscribes to `file` from `at_slot` on and spawns a client task
    /// feeding the engine's ticket, sampling the client's own reception-error
    /// process `errors` once per delivered data slot of its channel.
    ///
    /// Slots already served when the subscription registers are gone (a
    /// broadcast does not rewind); the client's cursor starts at the later
    /// of the request slot and the serving cursor.  Every subscription the
    /// engine issues a ticket for is seated: a broadcast serves any number
    /// of listeners, so the only error is the engine's own (for the
    /// facade, an unknown file).
    pub fn subscribe_with(
        &self,
        file: FileId,
        at_slot: usize,
        errors: impl ChannelErrorModel + Send + 'static,
    ) -> Result<Subscription<E::Ticket>, RuntimeError<E::Error>> {
        let counters = Arc::new(SubscriberCounters::default());
        let detached = Arc::new(AtomicBool::new(false));
        let (id, ticket, start_slot) = self
            .controller
            .ask(|reply| Command::Subscribe {
                file,
                at_slot,
                counters: counters.clone(),
                detached: detached.clone(),
                reply,
            })?
            .map_err(RuntimeError::Engine)?;
        let cursor = ticket.request_slot().max(start_slot);
        let controller = self.controller.clone();
        let ring = self.ring.clone();
        let task = {
            let counters = counters.clone();
            let detached = detached.clone();
            std::thread::Builder::new()
                .name(format!("brt-client-{id}"))
                .spawn(move || {
                    client_loop(
                        id, ticket, errors, ring, counters, detached, cursor, controller,
                    )
                })
                .expect("the client task spawns")
        };
        Ok(Subscription { id, counters, task })
    }

    /// Detaches a subscription from the broadcast: its detach flag is
    /// raised and its client task finishes without further deliveries.
    pub fn unsubscribe<T>(&self, subscription: &Subscription<T>) {
        let _ = self.controller.send(Command::Unsubscribe {
            id: subscription.id,
        });
    }

    /// See [`RuntimeController::snapshot`].
    pub fn snapshot(&self) -> Result<E, RuntimeError<E::Error>> {
        self.controller.snapshot()
    }

    /// See [`RuntimeController::swap_at`].
    pub fn swap_at(
        &self,
        prepared: E::Prepared,
        at_slot: usize,
        policy: SwapPolicy,
    ) -> Result<E::Report, RuntimeError<E::Error>> {
        self.controller.swap_at(prepared, at_slot, policy)
    }

    /// See [`RuntimeController::stats`].
    pub fn stats(&self) -> Result<RuntimeStats, RuntimeError<E::Error>> {
        self.controller.stats()
    }

    /// Stops the serving loop (closing the ring and detaching every
    /// subscriber) and returns the engine, so serving can resume later —
    /// synchronously or under a fresh runtime.
    pub fn shutdown(mut self) -> Result<E, RuntimeError<E::Error>> {
        let _ = self.controller.send(Command::Shutdown);
        self.clock.close();
        let server = self.server.take().expect("shutdown runs at most once");
        server.join().map_err(|_| RuntimeError::Closed)
    }
}

impl<E: Engine> Drop for Runtime<E> {
    fn drop(&mut self) {
        if self.server.is_some() {
            let _ = self.controller.send(Command::Shutdown);
            self.clock.close();
        }
    }
}

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

struct Entry {
    file: FileId,
    epoch: u64,
    /// The reader's starting cursor: the later of its request slot and the
    /// serving slot when it was seated.  Its cursor — and so any span it
    /// replays as lag — never drops below it.
    start: usize,
    counters: Arc<SubscriberCounters>,
    detached: Arc<AtomicBool>,
}

struct PendingSwap<E: Engine> {
    at_slot: usize,
    seq: u64,
    policy: SwapPolicy,
    prepared: E::Prepared,
    reply: mpsc::Sender<Result<E::Report, E::Error>>,
}

/// The fleet-level metrics, as handles into the `bobs` registry: the
/// serving loop's counting *is* the registry's content, so
/// [`RuntimeStats`] is a snapshot view rather than a second set of books.
/// Counter/gauge writes are single atomics — the same cost as the
/// plain-field bookkeeping they replaced, now scrapable.
struct FleetMetrics {
    slots_served: Counter,
    total_subscriptions: Counter,
    completed: Counter,
    cancelled: Counter,
    lagged_slots: Counter,
    lag_erasures: Counter,
    swaps_applied: Counter,
    active_subscribers: Gauge,
    pending_swaps: Gauge,
    /// Signed slot-deadline lateness: publish time minus the slot's
    /// `SlotClock` due-time, nanoseconds.  Recording-gated, and only fed
    /// when the clock has deadlines (a `WallClock`).
    slot_lateness_ns: Histogram,
    /// Per-phase serving-loop timings, recording-gated like lateness.
    phase_build_ns: Histogram,
    phase_publish_ns: Histogram,
    phase_wakeup_ns: Histogram,
}

impl FleetMetrics {
    fn new(registry: &Registry) -> Self {
        FleetMetrics {
            slots_served: registry.counter("brt_slots_served"),
            total_subscriptions: registry.counter("brt_subscriptions_total"),
            completed: registry.counter("brt_completed"),
            cancelled: registry.counter("brt_cancelled"),
            lagged_slots: registry.counter("brt_lagged_slots"),
            lag_erasures: registry.counter("brt_lag_erasures"),
            swaps_applied: registry.counter("brt_swaps_applied"),
            active_subscribers: registry.gauge("brt_active_subscribers"),
            pending_swaps: registry.gauge("brt_pending_swaps"),
            slot_lateness_ns: registry.histogram("brt_slot_lateness_ns"),
            phase_build_ns: registry.histogram("brt_phase_build_ns"),
            phase_publish_ns: registry.histogram("brt_phase_publish_ns"),
            phase_wakeup_ns: registry.histogram("brt_phase_wakeup_ns"),
        }
    }
}

/// Everything the server loop owns besides the engine and the clock.
struct ServerState<E: Engine> {
    next_id: u64,
    next_seq: u64,
    subscribers: BTreeMap<u64, Entry>,
    pending: Vec<PendingSwap<E>>,
    fleet: FleetMetrics,
    telemetry: Telemetry,
    ring: Arc<BroadcastRing>,
    published: Published<E>,
}

impl<E: Engine> ServerState<E> {
    fn new(ring: Arc<BroadcastRing>, telemetry: Telemetry, published: Published<E>) -> Self {
        ServerState {
            next_id: 0,
            next_seq: 0,
            subscribers: BTreeMap::new(),
            pending: Vec::new(),
            fleet: FleetMetrics::new(telemetry.registry()),
            telemetry,
            ring,
            published,
        }
    }

    /// Makes `engine` what [`RuntimeController::snapshot`] clones (`None`
    /// once serving has ended).
    fn publish(&self, engine: Option<E>) {
        *self.published.lock().expect("published engine lock") = engine;
    }

    /// Removes a subscriber, raising its detach flag so its reader stops.
    /// `wake` kicks the ring so a *parked* reader
    /// observes its raised detach flag — needed for externally-initiated
    /// departures (unsubscribe, swap cancellation) but pure waste for a
    /// reader that resolved its own retrieval: that reader is running, not
    /// parked, and fleet-wide kicks per completion turn a large fleet's
    /// drain-down into a quadratic wakeup storm.
    fn retire(&mut self, id: u64, wake: bool) -> Option<Entry> {
        let entry = self.subscribers.remove(&id)?;
        self.fleet
            .active_subscribers
            .set(self.subscribers.len() as i64);
        entry.detached.store(true, Ordering::SeqCst);
        if wake {
            self.ring.kick();
        }
        Some(entry)
    }

    /// The oldest history a live reader can still ask about, with `slot`
    /// the serving slot: no reader replays a slot below the earliest
    /// starting cursor, and none asks for the note of a swap at or below
    /// the oldest tuned epoch.  A reader admitted later starts at or after
    /// the serving slot, tuned to the latest mode (`latest_epoch` when
    /// nobody is live).
    fn retention_floor(&self, slot: usize, latest_epoch: u64) -> (usize, u64) {
        let live = self.subscribers.values();
        let slot = live.clone().map(|e| e.start).fold(slot, usize::min);
        let epoch = live.map(|e| e.epoch).min().unwrap_or(latest_epoch);
        (slot, epoch)
    }
}

fn server_loop<E: Engine>(
    mut engine: E,
    clock: SlotClock,
    waker: Arc<WakeSignal>,
    commands: mpsc::Receiver<Command<E>>,
    mut state: ServerState<E>,
    mut sinks: Vec<Box<dyn SlotSink>>,
) -> E {
    let mut slot: usize = 0;
    let ring = state.ring.clone();
    'serve: loop {
        // Commands are handled at slot boundaries only, so a subscribe or a
        // swap can never observe (or cause) a half-served slot.
        loop {
            match commands.try_recv() {
                Ok(Command::Shutdown) => break 'serve,
                Ok(cmd) => handle_command(cmd, &engine, slot, &mut state),
                Err(_) => break,
            }
        }
        // Swaps whose planned slot is already at (or behind) the serving
        // cursor apply right away — even while the clock is parked — so a
        // blocked `swap_at(past_slot, …)` never waits for the next tick.
        // Future-dated swaps stay pending until the cursor reaches them.
        apply_due_swaps(&mut engine, slot, &mut state, &mut sinks);
        match clock.poll(slot) {
            ClockPoll::Closed => break 'serve,
            ClockPoll::Ready => {
                // One clock query sizes a whole burst of due slots; with no
                // swap pending, nothing can change the engine or the fleet
                // until the next command is processed — commands only land
                // at the boundaries this loop chooses to observe — so the
                // burst serves without re-polling the command queue.  The
                // cap bounds command latency to a burst's worth of slots,
                // and a pending swap forces slot-at-a-time serving so it
                // applies exactly at its planned slot.
                let run = if state.pending.is_empty() {
                    clock.ready_run(slot).clamp(1, SERVE_BURST)
                } else {
                    1
                };
                if state.subscribers.is_empty() && sinks.is_empty() {
                    // Nothing can observe these slots — no subscriber is
                    // live, no sink is attached, and a later subscriber's
                    // cursor starts no earlier than the serving slot.
                    // Advance past the run instead of snapshotting cells
                    // nobody can ever read.
                    ring.skip_run(slot, run);
                    state.fleet.slots_served.add(run as u64);
                    state.telemetry.record_event(|| Event::SlotsSkipped {
                        from_slot: slot as u64,
                        slots: run as u64,
                    });
                } else {
                    serve_run(&engine, slot..slot + run, &mut sinks, &state, &clock);
                }
                slot += run;
            }
            ClockPoll::NotYet(hint) => {
                let wait = hint.unwrap_or(Duration::from_secs(60));
                waker.wait_timeout(wait.min(Duration::from_secs(60)));
            }
        }
    }
    for entry in state.subscribers.values() {
        entry.detached.store(true, Ordering::SeqCst);
    }
    state.publish(None);
    ring.close();
    // Unapplied swaps and unanswered note requests: their reply senders
    // drop with the queue, unblocking the waiters.
    engine
}

fn handle_command<E: Engine>(
    command: Command<E>,
    engine: &E,
    slot: usize,
    state: &mut ServerState<E>,
) {
    match command {
        Command::Subscribe {
            file,
            at_slot,
            counters,
            detached,
            reply,
        } => match engine.subscribe(file, at_slot) {
            Ok(ticket) => {
                let id = state.next_id;
                state.next_id += 1;
                state.subscribers.insert(
                    id,
                    Entry {
                        file,
                        epoch: ticket.epoch(),
                        start: ticket.request_slot().max(slot),
                        counters,
                        detached,
                    },
                );
                state.fleet.total_subscriptions.inc();
                state
                    .fleet
                    .active_subscribers
                    .set(state.subscribers.len() as i64);
                state.telemetry.record_event(|| Event::SubscriberAdmitted {
                    id,
                    file: file.0 as u64,
                });
                let _ = reply.send(Ok((id, ticket, slot)));
            }
            Err(e) => {
                let _ = reply.send(Err(e));
            }
        },
        Command::Unsubscribe { id } => {
            state.retire(id, true);
        }
        Command::Resolved { id, cancelled } => {
            if state.retire(id, false).is_some() {
                if cancelled {
                    state.fleet.cancelled.inc();
                } else {
                    state.fleet.completed.inc();
                }
                state
                    .telemetry
                    .record_event(|| Event::SubscriberResolved { id, cancelled });
            }
        }
        Command::Lag {
            id,
            channel,
            epoch,
            from,
            to,
            reply,
        } => {
            // Replay the overwritten span's schedule to count exactly what
            // the reader missed — off the data path, so only lagging
            // subscribers pay for it.  Departed subscribers book nothing.
            let mut lagged = (0, 0);
            if let Some(entry) = state.subscribers.get(&id) {
                lagged = replay_lag(engine, entry.file, channel, epoch, from, to);
                entry.counters.lagged_slots.add(lagged.0);
                entry.counters.lag_erasures.add(lagged.1);
                state.fleet.lagged_slots.add(lagged.0);
                state.fleet.lag_erasures.add(lagged.1);
                state.telemetry.record_event(|| Event::SubscriberLagged {
                    id,
                    from_slot: from as u64,
                    to_slot: to as u64,
                });
            }
            let _ = reply.send(lagged);
        }
        Command::Note {
            id,
            channel,
            epoch,
            reply,
        } => {
            let Some(entry) = state.subscribers.get_mut(&id) else {
                return; // departed: dropping `reply` ends the waiting reader
            };
            let note = engine.note_for(entry.file, channel, epoch);
            if let SwapNote::Retune { epoch, .. } = &note {
                entry.epoch = *epoch;
            } else {
                state.retire(id, true);
                state.fleet.cancelled.inc();
                state.telemetry.record_event(|| Event::SubscriberResolved {
                    id,
                    cancelled: true,
                });
            }
            let _ = reply.send(note);
        }
        Command::Swap {
            prepared,
            at_slot,
            policy,
            reply,
        } => {
            let seq = state.next_seq;
            state.next_seq += 1;
            state.pending.push(PendingSwap {
                at_slot,
                seq,
                policy,
                prepared,
                reply,
            });
            state.fleet.pending_swaps.set(state.pending.len() as i64);
            state.telemetry.record_event(|| Event::SwapPrepared {
                at_slot: at_slot as u64,
            });
        }
        Command::Stats { reply } => {
            let _ = reply.send(RuntimeStats {
                slots_served: state.fleet.slots_served.get(),
                active_subscribers: state.subscribers.len(),
                total_subscriptions: state.fleet.total_subscriptions.get(),
                completed: state.fleet.completed.get(),
                cancelled: state.fleet.cancelled.get(),
                lagged_slots: state.fleet.lagged_slots.get(),
                lag_erasures: state.fleet.lag_erasures.get(),
                swaps_applied: state.fleet.swaps_applied.get(),
                pending_swaps: state.pending.len(),
            });
        }
        Command::Shutdown => unreachable!("shutdown is intercepted by the serve loop"),
    }
}

/// Applies every pending swap whose planned slot has arrived, in planned
/// order (FIFO among equal slots), *before* the slot is transmitted — so a
/// swap planned for slot `s` flips exactly at `s` when it was scheduled
/// ahead of time, and at the current slot when it arrived late.  Every
/// landed swap is announced to the sinks ([`SlotSink::mode_changed`]) before
/// its requester hears back, and lets the engine retire what the live
/// fleet can no longer read ([`Engine::retire`]) — so a station refreshed
/// without end holds no more history than its readers need.  Then the
/// engine is published for [`RuntimeController::snapshot`], still before
/// the reply.
fn apply_due_swaps<E: Engine>(
    engine: &mut E,
    slot: usize,
    state: &mut ServerState<E>,
    sinks: &mut [Box<dyn SlotSink>],
) {
    loop {
        let due = state
            .pending
            .iter()
            .enumerate()
            .filter(|(_, p)| p.at_slot <= slot)
            .min_by_key(|(_, p)| (p.at_slot, p.seq))
            .map(|(i, _)| i);
        let Some(index) = due else { return };
        let swap = state.pending.remove(index);
        state.fleet.pending_swaps.set(state.pending.len() as i64);
        let result = engine.swap(swap.prepared, slot, swap.policy);
        if result.is_ok() {
            state.fleet.swaps_applied.inc();
            state.telemetry.record_event(|| Event::SwapLanded {
                at_slot: slot as u64,
            });
            for sink in sinks.iter_mut() {
                sink.mode_changed(engine.bank());
            }
            let (floor_slot, floor_epoch) = state.retention_floor(slot, engine.bank().epoch());
            engine.retire(floor_slot, floor_epoch);
            state.publish(Some(engine.snapshot()));
        }
        let _ = swap.reply.send(result);
    }
}

/// Snapshots every lane's epoch and transmission for `slot` into one
/// [`SlotCell`] — the single publication the whole fleet reads.
fn build_cell<E: Engine>(engine: &E, slot: usize) -> SlotCell {
    let bank = engine.bank();
    let lane_count = bank.lane_count();
    let mut lanes = Vec::with_capacity(lane_count);
    for channel in 0..lane_count {
        let epoch = bank.epoch_at(channel, slot);
        // Dark lanes transmit nothing; idle slots carry no block.  The
        // payload clone is a reference-count bump, never a byte copy.
        let block = match epoch {
            Some(_) => bank.transmit_ref(channel, slot).map(|tx| tx.block.clone()),
            None => None,
        };
        lanes.push(LaneCell { epoch, block });
    }
    SlotCell { slot, lanes }
}

/// Serves the slots of `run`, the one way every observable slot goes out:
/// each is snapshotted into one [`SlotCell`]; then, in slot order, each
/// cell is handed to every sink and only then counted served; then the
/// whole run is published onto the broadcast ring under one lock and its
/// readers are woken once.  A ring reader never sees a slot the sinks have
/// not, and the served count never runs ahead of what the sinks sent —
/// slot by slot, so a pacer reading it sees progress inside a run.
///
/// Phases and lateness are booked per run: cell build `[t0, t1)`, sinks
/// and ring publish `[t1, t2)`, cohort wakeup `[t2, t3)`, and every slot's
/// lateness as of the run's publish.  They are recorded only while
/// recording is on and the clock has deadlines, so a `ManualClock` run
/// records nothing nondeterministic.
fn serve_run<E: Engine>(
    engine: &E,
    run: Range<usize>,
    sinks: &mut [Box<dyn SlotSink>],
    state: &ServerState<E>,
    clock: &SlotClock,
) {
    let timed = state.telemetry.recording() && clock.slot_lateness(run.start).is_some();
    let t0 = timed.then(Instant::now);
    let cells: Vec<Arc<SlotCell>> = run
        .clone()
        .map(|s| Arc::new(build_cell(engine, s)))
        .collect();
    let t1 = timed.then(Instant::now);
    for cell in &cells {
        state.telemetry.record_event(|| Event::SlotPublished {
            slot: cell.slot as u64,
            lanes: cell.lanes.iter().filter(|l| l.block.is_some()).count() as u32,
        });
        for sink in sinks.iter_mut() {
            sink.publish(cell);
        }
        // Released after the sinks' own counts (see `bobs::Counter`): a
        // reader that sees this slot served also sees its datagrams sent.
        state.fleet.slots_served.inc();
    }
    let wake = state.ring.publish_run(cells);
    let t2 = timed.then(Instant::now);
    wake.wake();
    if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
        let t3 = Instant::now();
        let nanos = |d: Duration| d.as_nanos().min(i64::MAX as u128) as i64;
        state.fleet.phase_build_ns.record(nanos(t1 - t0));
        state.fleet.phase_publish_ns.record(nanos(t2 - t1));
        state.fleet.phase_wakeup_ns.record(nanos(t3 - t2));
        for slot in run {
            if let Some(lateness) = clock.slot_lateness(slot) {
                state.fleet.slot_lateness_ns.record(lateness);
            }
        }
    }
}

/// Counts what a reader missed across an overwritten span `[from, to)` on
/// its tuned `(channel, epoch)`: data slots the span's schedule would have
/// delivered, and how many of them carried `file` — exactly the accounting
/// a bounded queue's drops produced, derived from the same timeline.
fn replay_lag<E: Engine>(
    engine: &E,
    file: FileId,
    channel: usize,
    epoch: u64,
    from: usize,
    to: usize,
) -> (u64, u64) {
    let bank = engine.bank();
    debug_assert!(
        from >= bank.retired_before(),
        "lag replay from slot {from} reads below the retention floor {}",
        bank.retired_before()
    );
    if channel >= bank.lane_count() {
        return (0, 0);
    }
    let mut lagged_slots = 0;
    let mut lagged_file_blocks = 0;
    for slot in from..to {
        if bank.epoch_at(channel, slot) != Some(epoch) {
            continue;
        }
        let Some(tx) = bank.transmit_ref(channel, slot) else {
            continue; // idle slot: a queue would not have carried it either
        };
        lagged_slots += 1;
        if tx.block.file() == file {
            lagged_file_blocks += 1;
        }
    }
    (lagged_slots, lagged_file_blocks)
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)] // one call site; a struct would obscure it
fn client_loop<E: Engine>(
    id: u64,
    mut ticket: E::Ticket,
    mut errors: impl ChannelErrorModel,
    ring: Arc<BroadcastRing>,
    counters: Arc<SubscriberCounters>,
    detached: Arc<AtomicBool>,
    mut cursor: usize,
    controller: RuntimeController<E>,
) -> E::Ticket {
    let mut batch: Vec<Arc<SlotCell>> = Vec::with_capacity(READ_BATCH);
    'read: loop {
        match ring.read_many(cursor, READ_BATCH, &detached, &mut batch) {
            BatchRead::Closed | BatchRead::Detached => break 'read,
            BatchRead::Overwritten { resume } => {
                // Self-account the overwritten span as lag: the server
                // replays the span's schedule (off the data path) and books
                // the counts; the ticket records the erasures.
                let lag = controller.ask(|reply| Command::Lag {
                    id,
                    channel: ticket.channel(),
                    epoch: ticket.epoch(),
                    from: cursor,
                    to: resume,
                    reply,
                });
                let Ok((lagged_slots, lagged_file_blocks)) = lag else {
                    break 'read;
                };
                if lagged_slots > 0 {
                    ticket.erase(lagged_file_blocks as usize);
                }
                cursor = resume;
            }
            BatchRead::Cells => {
                for cell in batch.drain(..) {
                    // The epoch rule, applied reader-side against the cell's
                    // published lane epochs, fetching notes from the serving
                    // thread in stream order.
                    let tuning = resolve_epoch(
                        &mut ticket,
                        |channel| cell.lanes.get(channel)?.epoch,
                        |channel, epoch| {
                            controller.ask(|reply| Command::Note {
                                id,
                                channel,
                                epoch,
                                reply,
                            })
                        },
                    );
                    let channel = match tuning {
                        Ok(Tuning::Listen(channel)) => channel,
                        Ok(Tuning::Wait) => {
                            cursor += 1;
                            continue;
                        }
                        // Cancelled (the server retired us when it answered),
                        // or retired / shut down before it could answer.
                        Ok(Tuning::Cancelled) | Err(_) => break 'read,
                    };
                    if let Some(block) = cell.lanes[channel].block.as_ref() {
                        counters.delivered.inc();
                        let tx = TransmissionRef {
                            slot: cell.slot,
                            block,
                        };
                        let ok = !errors.is_lost_on(channel, tx);
                        if ticket.observe(Some(tx), ok) {
                            let _ = controller.send(Command::Resolved {
                                id,
                                cancelled: false,
                            });
                            break 'read;
                        }
                    }
                    cursor += 1;
                }
            }
        }
    }
    ticket
}
