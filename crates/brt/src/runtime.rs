//! The threaded broadcast runtime: a slot-clocked serving loop on its own
//! thread, publishing each slot **once** onto a shared broadcast ring that
//! any number of concurrent client tasks read through private cursors.
//!
//! ## Architecture
//!
//! ```text
//!          calls (subscribe / unsubscribe / lag / note / swap / stats)
//!   Runtime ─────────────────────────────────────────────────┐
//!      │                                                     ▼
//!      │ spawn       ┌─────────────┐  locks once   ┌──────────────────┐
//!      ├───────────▶ │ server loop │ ──per step──▶ │ core: engine,    │
//!      │             └──────┬──────┘               │ subscribers,     │
//!      │                    │                      │ swaps, sinks,    │
//!      │                    │ each cell ──▶ every  │ serving cursor   │
//!      │                    │ SlotSink, then the   └──────────────────┘
//!      │ subscribe_with(..) │ run, once
//!      ▼                    ▼
//!   Subscription ◀── client task ◀─ cursor ─▶ [ BroadcastRing ] ◀─ cursor ─ …
//! ```
//!
//! * One **serving core** behind one lock holds the engine, the subscriber
//!   table, the pending swaps, the sinks and the serving cursor.  The
//!   serving loop locks it once per step and holds it across the whole run
//!   it serves; every other operation — subscribe, unsubscribe, a reader's
//!   lag or note request, stats, a swap — is a plain call that locks it on
//!   the caller's own thread, and so lands at a run boundary.  Locks are
//!   taken in the order core → ring → published engine (or a sink's own
//!   state); nothing takes the core while holding the ring.
//! * The **server loop** is the only code that holds the [`SlotClock`] or
//!   parks.  It waits for a run of ready slots and hands the run's length
//!   and the clock's lateness to the core's serving step, which has no
//!   clock of its own and advances the run one of two ways.  When nothing can observe
//!   it (no live subscriber, no sink) the ring skips it.  Otherwise it is
//!   served: each slot's lanes are snapshotted into one [`SlotCell`]; each
//!   cell, in slot order, goes to every [`SlotSink`] and is then counted in
//!   `brt_slots_served`; and the run is published to the [`BroadcastRing`]
//!   under one lock with one wake of the readers it satisfies —
//!   independent of the fleet size.  Then the cursor moves and every swap
//!   whose planned slot it reached lands, before the core is unlocked: no
//!   swap is ever due while the core is free.  The server never touches
//!   per-subscriber state on the data path.
//! * Each **client task** reads the ring and hands every batch to its
//!   thread-free `Reader`, which owns the subscriber's id, ticket, cursor
//!   and reception-error process.  Per cell it runs the reader step that
//!   [`crate::drive`] runs per slot: resolve its epoch against the cell's
//!   lane epochs, then sample and observe its lane.  A reader that falls
//!   more than the ring's capacity behind observes the overwrite and
//!   self-accounts the skipped span as lag/erasures (the core replays the
//!   span's schedule off the data path to count exactly which dropped slots
//!   carried the subscriber's file).
//! * Swap notes are requested by the reader from the core at the exact cell
//!   where it observes its channel's epoch move — so a subscriber applies a
//!   mode transition at precisely the right point of its delivery stream
//!   and epochs never desync.  A departed subscriber or a shut-down runtime
//!   gets no note, which ends the reader.
//! * A swap whose planned slot the cursor has reached **lands on the
//!   calling thread**, under the core lock.  Only a future-dated swap waits
//!   for the serving loop to reach its slot; it and shutdown are the only
//!   things that wake a parked server.
//! * Only the runtime knows who can still read, so after each landed swap
//!   it hands the engine a **retention floor** ([`Engine::retire`]): the
//!   earliest slot a live reader may replay and the oldest epoch one is
//!   tuned to.  History behind it is dropped, so a station refreshed
//!   without end stays flat in memory.
//! * Then it **publishes** a snapshot of the engine, before the swap's
//!   requester hears back: only swaps change the engine, so
//!   [`RuntimeController::snapshot`] clones the published one instead of
//!   waiting for the core, which a serving run may hold.

use crate::clock::{ClockPoll, SlotClock, WakeSignal};
use crate::engine::{hear, Engine, Heard, Subscriber, SwapNote};
use crate::ring::{BatchRead, BroadcastRing, LaneCell, SlotCell};
use crate::sink::SlotSink;
use bdisk::ChannelErrorModel;
use bmode::SwapPolicy;
use bobs::{Counter, Event, Gauge, Histogram, Registry, Telemetry};
use ida::FileId;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, LockResult, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cells a client task drains from the broadcast ring per lock acquisition:
/// enough to amortise locking while it catches up to a free-running server,
/// small enough that detach/close checks stay prompt.
const READ_BATCH: usize = 256;

/// Ready slots the serving loop transmits per hold of the serving core
/// while no swap is pending: long enough to amortise the lock and the clock
/// query out of the per-slot cost when the clock free-runs, short enough
/// that a call waits at most one such burst for its boundary.
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

/// What a successful subscribe returns: the runtime-assigned subscriber id,
/// the engine's ticket, and the serving cursor at registration (slots
/// before it are gone — a broadcast does not rewind).
type Seat<E> = (u64, <E as Engine>::Ticket, usize);

/// The engine as of the last landed swap, published by the serving core for
/// [`RuntimeController::snapshot`]; `None` once serving has ended.
type Published<E> = Arc<Mutex<Option<E>>>;

/// The serving core behind its lock (`None` once serving has ended), with
/// a count of the calls that asked for it and of those it admitted.  A
/// serving loop that finds calls waiting steps aside between runs until
/// they are in: std's mutex is not fair, and a loop that relocked at once
/// would starve them while the clock runs ahead of it.
struct Shared<E: Engine> {
    core: Mutex<Option<Core<E>>>,
    asked: AtomicU64,
    admitted: AtomicU64,
}

impl<E: Engine> Shared<E> {
    /// Locks the core, queueing behind any run the serving loop holds it
    /// for.  Poisoned once a panic (a sink's, say) left it half-stepped.
    fn lock(&self) -> LockResult<MutexGuard<'_, Option<Core<E>>>> {
        self.asked.fetch_add(1, Ordering::AcqRel);
        let core = self.core.lock();
        self.admitted.fetch_add(1, Ordering::AcqRel);
        core
    }

    /// Yields until every call that asked for the core before now has had
    /// it; later calls do not hold the serving loop up.
    fn let_waiting_calls_in(&self) {
        let asked = self.asked.load(Ordering::Acquire);
        while self.admitted.load(Ordering::Acquire) < asked {
            std::thread::yield_now();
        }
    }
}

/// A cheap, cloneable handle on a running runtime's serving core — what
/// the [`crate::SwapScheduler`] and client tasks hold.
pub struct RuntimeController<E: Engine> {
    shared: Arc<Shared<E>>,
    waker: Arc<WakeSignal>,
    published: Published<E>,
}

impl<E: Engine> Clone for RuntimeController<E> {
    fn clone(&self) -> Self {
        RuntimeController {
            shared: self.shared.clone(),
            waker: self.waker.clone(),
            published: self.published.clone(),
        }
    }
}

impl<E: Engine> RuntimeController<E> {
    /// A serving core at slot 0 over `engine`, publishing onto `ring`, with
    /// no thread and no clock: [`Runtime::spawn_with_telemetry`] starts the
    /// serving loop that steps it.  Every sink hears of the mode on the air
    /// first.
    fn new(
        engine: E,
        mut sinks: Vec<Box<dyn SlotSink>>,
        telemetry: Telemetry,
        ring: Arc<BroadcastRing>,
    ) -> Self {
        for sink in &mut sinks {
            sink.mode_changed(engine.bank());
        }
        let published = Arc::new(Mutex::new(Some(engine.snapshot())));
        let core = Core {
            engine,
            slot: 0,
            next_id: 0,
            next_seq: 0,
            subscribers: BTreeMap::new(),
            pending: Vec::new(),
            sinks,
            fleet: FleetMetrics::new(telemetry.registry()),
            telemetry,
            ring,
            published: published.clone(),
        };
        RuntimeController {
            shared: Arc::new(Shared {
                core: Mutex::new(Some(core)),
                asked: AtomicU64::new(0),
                admitted: AtomicU64::new(0),
            }),
            waker: Arc::new(WakeSignal::new()),
            published,
        }
    }

    /// Runs `call` on the serving core, on the calling thread, between two
    /// of the serving loop's runs.  Fails once the runtime has shut down
    /// (or a panic poisoned the core).
    fn with_core<R>(
        &self,
        call: impl FnOnce(&mut Core<E>) -> R,
    ) -> Result<R, RuntimeError<E::Error>> {
        let mut core = self.shared.lock().map_err(|_| RuntimeError::Closed)?;
        core.as_mut().map(call).ok_or(RuntimeError::Closed)
    }

    /// A clone of the engine as of the last landed swap — what a
    /// preparation thread designs against.  The serving core publishes its
    /// engine when it starts and after each landed swap (and the retirement
    /// that follows it), before the swap's requester hears back, so this
    /// never waits for the core, which a serving run may hold: it clones
    /// what was published.  Nothing but a swap changes what a preparation
    /// reads, and a preparation from before a later swap is still refused
    /// by the engine's own staleness check.  Fails once the runtime has
    /// shut down.
    pub fn snapshot(&self) -> Result<E, RuntimeError<E::Error>> {
        let published = self.published.lock().expect("published engine lock");
        published
            .as_ref()
            .map(Engine::snapshot)
            .ok_or(RuntimeError::Closed)
    }

    /// Schedules `prepared` to be swapped in when the serving loop reaches
    /// `at_slot` and blocks until the swap was applied, returning the
    /// engine's report.  A swap whose slot the serving cursor has reached
    /// lands on the calling thread, under the serving core's lock, exactly
    /// as the serving loop would land it (announced to the sinks, history
    /// retired, the engine published) — so it costs the swap's own work,
    /// even while the clock is parked.  A future-dated swap wakes the
    /// serving loop, which lands it exactly at its planned slot.
    pub fn swap_at(
        &self,
        prepared: E::Prepared,
        at_slot: usize,
        policy: SwapPolicy,
    ) -> Result<E::Report, RuntimeError<E::Error>> {
        let (reply, answer) = mpsc::channel();
        let landed = self.with_core(|core| core.queue_swap(prepared, at_slot, policy, reply))?;
        if !landed {
            // A pending swap forces slot-at-a-time serving from the next
            // step on.
            self.waker.wake();
        }
        answer
            .recv()
            .map_err(|_| RuntimeError::Closed)?
            .map_err(RuntimeError::Engine)
    }

    /// Fleet-level counters, read under the serving core's lock: at a run
    /// boundary, once the ring holds every slot they count.
    pub fn stats(&self) -> Result<RuntimeStats, RuntimeError<E::Error>> {
        self.with_core(|core| core.stats())
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
    /// The serving loop's `brt_slots_served`, read without the core lock.
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
        sinks: Vec<Box<dyn SlotSink>>,
        telemetry: Telemetry,
    ) -> Self {
        let clock = clock.into();
        let ring = Arc::new(BroadcastRing::new(config.queue_capacity));
        let controller = RuntimeController::new(engine, sinks, telemetry.clone(), ring.clone());
        clock.register_waker(controller.waker.clone());
        let server = {
            let (controller, clock) = (controller.clone(), clock.clone());
            std::thread::Builder::new()
                .name("brt-server".to_string())
                .spawn(move || server_loop(&controller.shared, &clock, &controller.waker))
                .expect("the broadcast server thread spawns")
        };
        Runtime {
            controller,
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
    /// [`Runtime::stats`] this never takes the serving core's lock, so it is
    /// safe to poll tightly (a stats call per poll makes the serving loop
    /// step aside for it between runs); a stats answer comes at a run
    /// boundary, once the ring holds every slot it counts.
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
            .with_core(|core| core.subscribe(file, at_slot, counters.clone(), detached.clone()))?
            .map_err(RuntimeError::Engine)?;
        let mut reader = Reader {
            id,
            cursor: ticket.request_slot().max(start_slot),
            ticket,
            errors,
            counters: counters.clone(),
        };
        let (controller, ring) = (self.controller.clone(), self.ring.clone());
        let task = std::thread::Builder::new()
            .name(format!("brt-client-{id}"))
            .spawn(move || {
                let mut batch = Vec::with_capacity(READ_BATCH);
                loop {
                    let read = ring.read_many(reader.cursor, READ_BATCH, &detached, &mut batch);
                    if !reader.advance(read, &batch, &controller) {
                        return reader.ticket;
                    }
                }
            })
            .expect("the client task spawns");
        Ok(Subscription { id, counters, task })
    }

    /// Detaches a subscription from the broadcast: its detach flag is
    /// raised and its client task finishes without further deliveries.
    pub fn unsubscribe<T>(&self, subscription: &Subscription<T>) {
        let _ = self
            .controller
            .with_core(|core| core.retire(subscription.id, true));
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
        self.clock.close();
        let server = self.server.take().expect("shutdown runs at most once");
        server.join().map_err(|_| RuntimeError::Closed)
    }
}

impl<E: Engine> Drop for Runtime<E> {
    fn drop(&mut self) {
        if self.server.is_some() {
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

/// The serving core: everything the serving loop and the controllers share,
/// behind one lock.  The serving loop holds it across each run it serves;
/// every other operation is a call on it from its caller's thread, landing
/// at a run boundary.
struct Core<E: Engine> {
    engine: E,
    /// The serving cursor: the next slot to serve.
    slot: usize,
    next_id: u64,
    next_seq: u64,
    subscribers: BTreeMap<u64, Entry>,
    pending: Vec<PendingSwap<E>>,
    sinks: Vec<Box<dyn SlotSink>>,
    fleet: FleetMetrics,
    telemetry: Telemetry,
    ring: Arc<BroadcastRing>,
    published: Published<E>,
}

impl<E: Engine> Core<E> {
    /// Seats a subscriber of `file` from `at_slot` on, if the engine issues
    /// it a ticket.
    fn subscribe(
        &mut self,
        file: FileId,
        at_slot: usize,
        counters: Arc<SubscriberCounters>,
        detached: Arc<AtomicBool>,
    ) -> Result<Seat<E>, E::Error> {
        let ticket = self.engine.subscribe(file, at_slot)?;
        let id = self.next_id;
        self.next_id += 1;
        self.subscribers.insert(
            id,
            Entry {
                file,
                epoch: ticket.epoch(),
                start: ticket.request_slot().max(self.slot),
                counters,
                detached,
            },
        );
        self.fleet.total_subscriptions.inc();
        self.fleet
            .active_subscribers
            .set(self.subscribers.len() as i64);
        self.telemetry.record_event(|| Event::SubscriberAdmitted {
            id,
            file: file.0 as u64,
        });
        Ok((id, ticket, self.slot))
    }

    /// Removes a subscriber, raising its detach flag so its reader stops.
    /// `wake` kicks the ring so a *parked* reader observes its raised
    /// detach flag — needed for a departure from outside (unsubscribe) but
    /// pure waste for a reader that stops by itself, on completing its
    /// retrieval or on the cancel note it asked for: that reader is
    /// running, not parked, and a fleet-wide kick per departure turns a
    /// large fleet's drain-down (or a swap that cancels it) into a
    /// quadratic wakeup storm.
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

    /// A reader completed its own retrieval.
    fn complete(&mut self, id: u64) {
        if self.retire(id, false).is_some() {
            self.fleet.completed.inc();
            self.telemetry.record_event(|| Event::SubscriberResolved {
                id,
                cancelled: false,
            });
        }
    }

    /// A reader found its cursor overwritten: books slots `[from, to)` on
    /// its tuned `(channel, epoch)` as lag and returns the counts.  The
    /// span's schedule is replayed to count exactly what the reader missed
    /// — off the data path, so only lagging subscribers pay for it.
    /// Departed subscribers book nothing.
    fn lag(&self, id: u64, channel: usize, epoch: u64, from: usize, to: usize) -> (u64, u64) {
        let Some(entry) = self.subscribers.get(&id) else {
            return (0, 0);
        };
        let lagged = replay_lag(&self.engine, entry.file, channel, epoch, from, to);
        entry.counters.lagged_slots.add(lagged.0);
        entry.counters.lag_erasures.add(lagged.1);
        self.fleet.lagged_slots.add(lagged.0);
        self.fleet.lag_erasures.add(lagged.1);
        self.telemetry.record_event(|| Event::SubscriberLagged {
            id,
            from_slot: from as u64,
            to_slot: to as u64,
        });
        lagged
    }

    /// A reader observed its channel's epoch move past `epoch`: the
    /// engine's disposition (retune or cancel), or `None` when the
    /// subscriber has departed.  A cancel retires it without a kick: the
    /// asking reader stops by itself.
    fn note(&mut self, id: u64, channel: usize, epoch: u64) -> Option<SwapNote> {
        let entry = self.subscribers.get_mut(&id)?;
        let note = self.engine.note_for(entry.file, channel, epoch);
        if let SwapNote::Retune { epoch, .. } = &note {
            entry.epoch = *epoch;
        } else {
            self.retire(id, false);
            self.fleet.cancelled.inc();
            self.telemetry.record_event(|| Event::SubscriberResolved {
                id,
                cancelled: true,
            });
        }
        Some(note)
    }

    /// Queues a swap planned for `at_slot`, whose result goes to `reply`,
    /// and lands it at once when the serving cursor has reached its slot.
    /// Returns whether it landed.
    fn queue_swap(
        &mut self,
        prepared: E::Prepared,
        at_slot: usize,
        policy: SwapPolicy,
        reply: mpsc::Sender<Result<E::Report, E::Error>>,
    ) -> bool {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(PendingSwap {
            at_slot,
            seq,
            policy,
            prepared,
            reply,
        });
        self.fleet.pending_swaps.set(self.pending.len() as i64);
        self.telemetry.record_event(|| Event::SwapPrepared {
            at_slot: at_slot as u64,
        });
        let due = at_slot <= self.slot;
        if due {
            self.apply_due_swaps();
        }
        due
    }

    fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            slots_served: self.fleet.slots_served.get(),
            active_subscribers: self.subscribers.len(),
            total_subscriptions: self.fleet.total_subscriptions.get(),
            completed: self.fleet.completed.get(),
            cancelled: self.fleet.cancelled.get(),
            lagged_slots: self.fleet.lagged_slots.get(),
            lag_erasures: self.fleet.lag_erasures.get(),
            swaps_applied: self.fleet.swaps_applied.get(),
            pending_swaps: self.pending.len(),
        }
    }

    /// The oldest history a live reader can still ask about: no reader
    /// replays a slot below the earliest starting cursor, and none asks for
    /// the note of a swap at or below the oldest tuned epoch.  A reader
    /// admitted later starts at or after the serving cursor, tuned to the
    /// latest mode (the bank's epoch when nobody is live).
    fn retention_floor(&self) -> (usize, u64) {
        let live = self.subscribers.values();
        let slot = live.clone().map(|e| e.start).fold(self.slot, usize::min);
        let epoch = live
            .map(|e| e.epoch)
            .min()
            .unwrap_or_else(|| self.engine.bank().epoch());
        (slot, epoch)
    }

    /// Applies every pending swap whose planned slot the serving cursor has
    /// reached, in planned order (FIFO among equal slots), *before* the
    /// cursor's slot is transmitted — so a swap planned for slot `s` flips
    /// exactly at `s` when it was queued ahead of time, and at the cursor
    /// when it arrived late.  Every landed swap is announced to the sinks
    /// ([`SlotSink::mode_changed`]) before its requester hears back, and
    /// lets the engine retire what the live fleet can no longer read
    /// ([`Engine::retire`]) — so a station refreshed without end holds no
    /// more history than its readers need.  Then the engine is published
    /// for [`RuntimeController::snapshot`], still before the reply.
    fn apply_due_swaps(&mut self) {
        let slot = self.slot;
        loop {
            let due = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.at_slot <= slot)
                .min_by_key(|(_, p)| (p.at_slot, p.seq))
                .map(|(i, _)| i);
            let Some(index) = due else { return };
            let swap = self.pending.remove(index);
            self.fleet.pending_swaps.set(self.pending.len() as i64);
            let result = self.engine.swap(swap.prepared, slot, swap.policy);
            if result.is_ok() {
                self.fleet.swaps_applied.inc();
                self.telemetry.record_event(|| Event::SwapLanded {
                    at_slot: slot as u64,
                });
                for sink in self.sinks.iter_mut() {
                    sink.mode_changed(self.engine.bank());
                }
                let (floor_slot, floor_epoch) = self.retention_floor();
                self.engine.retire(floor_slot, floor_epoch);
                *self.published.lock().expect("published engine lock") =
                    Some(self.engine.snapshot());
            }
            let _ = swap.reply.send(result);
        }
    }

    /// The serving step, with no clock of its own: serves (or skips) a run
    /// of the `ready` slots due at the cursor, moves the cursor past it and
    /// lands every swap the cursor reached — so no swap is due while the
    /// core is unlocked.  `lateness(slot)` is the clock's lateness of
    /// serving `slot` now (see [`Core::serve_run`]).
    fn serve_ready(&mut self, ready: usize, lateness: impl Fn(usize) -> Option<i64>) {
        let slot = self.slot;
        // Nothing can change the engine or the fleet while the core is
        // held, so a burst of due slots serves in one hold.  The cap bounds
        // how long a call waits for its boundary, and a pending swap forces
        // slot-at-a-time serving so it lands exactly at its planned slot.
        let run = if self.pending.is_empty() {
            ready.clamp(1, SERVE_BURST)
        } else {
            1
        };
        if self.subscribers.is_empty() && self.sinks.is_empty() {
            // Nothing can observe these slots — no subscriber is live, no
            // sink is attached, and a later subscriber's cursor starts no
            // earlier than the serving slot.  Advance past the run instead
            // of snapshotting cells nobody can ever read.
            self.ring.skip_run(slot, run);
            self.fleet.slots_served.add(run as u64);
            self.telemetry.record_event(|| Event::SlotsSkipped {
                from_slot: slot as u64,
                slots: run as u64,
            });
        } else {
            self.serve_run(slot..slot + run, lateness);
        }
        self.slot += run;
        self.apply_due_swaps();
    }

    /// Serves the slots of `run`, the one way every observable slot goes
    /// out: each is snapshotted into one [`SlotCell`]; then, in slot order,
    /// each cell is handed to every sink and only then counted served; then
    /// the whole run is published onto the broadcast ring under one lock
    /// and its readers are woken once.  A ring reader never sees a slot the
    /// sinks have not, and the served count never runs ahead of what the
    /// sinks sent — slot by slot, so a pacer reading it sees progress
    /// inside a run.
    ///
    /// Phases and lateness are booked per run: cell build `[t0, t1)`, sinks
    /// and ring publish `[t1, t2)`, cohort wakeup `[t2, t3)`, and every
    /// slot's lateness as of the run's publish.  They are recorded only
    /// while recording is on and `lateness` answers (the clock has
    /// deadlines), so a `ManualClock` run records nothing nondeterministic.
    fn serve_run(&mut self, run: Range<usize>, lateness: impl Fn(usize) -> Option<i64>) {
        let timed = self.telemetry.recording() && lateness(run.start).is_some();
        let t0 = timed.then(Instant::now);
        let cells: Vec<Arc<SlotCell>> = run
            .clone()
            .map(|s| Arc::new(build_cell(&self.engine, s)))
            .collect();
        let t1 = timed.then(Instant::now);
        for cell in &cells {
            self.telemetry.record_event(|| Event::SlotPublished {
                slot: cell.slot as u64,
                lanes: cell.lanes.iter().filter(|l| l.block.is_some()).count() as u32,
            });
            for sink in self.sinks.iter_mut() {
                sink.publish(cell);
            }
            // Released after the sinks' own counts (see `bobs::Counter`): a
            // reader that sees this slot served also sees its datagrams sent.
            self.fleet.slots_served.inc();
        }
        let wake = self.ring.publish_run(cells);
        let t2 = timed.then(Instant::now);
        wake.wake();
        if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
            let t3 = Instant::now();
            let nanos = |d: Duration| d.as_nanos().min(i64::MAX as u128) as i64;
            self.fleet.phase_build_ns.record(nanos(t1 - t0));
            self.fleet.phase_publish_ns.record(nanos(t2 - t1));
            self.fleet.phase_wakeup_ns.record(nanos(t3 - t2));
            for slot in run {
                if let Some(late) = lateness(slot) {
                    self.fleet.slot_lateness_ns.record(late);
                }
            }
        }
    }

    /// Ends serving: detaches every subscriber, withdraws the published
    /// engine and closes the ring.  Unapplied swaps drop their reply
    /// senders with the core, which unblocks their requesters.
    fn close(self) -> E {
        for entry in self.subscribers.values() {
            entry.detached.store(true, Ordering::SeqCst);
        }
        *self.published.lock().expect("published engine lock") = None;
        self.ring.close();
        self.engine
    }
}

/// The serving thread, and the only holder of the clock: steps the core
/// whenever the clock has a ready run, holding the core's lock for the
/// step, and parks on `waker` while no slot is due.  Returns the engine
/// once the clock closes.
fn server_loop<E: Engine>(shared: &Shared<E>, clock: &SlotClock, waker: &WakeSignal) -> E {
    let mut held = loop {
        let mut held = shared.lock().expect("serving core lock");
        let core = held.as_mut().expect("only the serving loop ends the core");
        match clock.poll(core.slot) {
            ClockPoll::Closed => break held,
            ClockPoll::Ready(ready) => {
                core.serve_ready(ready, |slot| clock.slot_lateness(slot));
                drop(held);
                shared.let_waiting_calls_in();
            }
            ClockPoll::NotYet(hint) => {
                drop(held);
                let wait = hint.unwrap_or(Duration::from_secs(60));
                waker.wait_timeout(wait.min(Duration::from_secs(60)));
            }
        }
    };
    let core = held.take().expect("only the serving loop ends the core");
    drop(held);
    core.close()
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

/// A subscriber's side of the ring, with no thread: its id, ticket, cursor
/// and reception-error process.  A client task reads the ring at the
/// cursor and hands each read to [`Reader::advance`] until it says stop.
pub(crate) struct Reader<E: Engine, M> {
    id: u64,
    ticket: E::Ticket,
    /// The next slot to read.
    cursor: usize,
    errors: M,
    counters: Arc<SubscriberCounters>,
}

impl<E: Engine, M: ChannelErrorModel> Reader<E, M> {
    /// Consumes one ring read (`batch` holds its cells) and returns whether
    /// to read on.  Each cell goes through the reader step, asking the
    /// serving core for swap notes in stream order.  An overwritten cursor
    /// books the lost span through the core (which replays its schedule)
    /// and erases the file's blocks in it.  It stops once the retrieval
    /// resolves, or on the ring's close or detach, or when the core no
    /// longer seats it (retired, or shut down) at a note.
    fn advance(
        &mut self,
        read: BatchRead,
        batch: &[Arc<SlotCell>],
        controller: &RuntimeController<E>,
    ) -> bool {
        let id = self.id;
        match read {
            BatchRead::Closed | BatchRead::Detached => return false,
            BatchRead::Overwritten { resume } => {
                let (channel, epoch, from) =
                    (self.ticket.channel(), self.ticket.epoch(), self.cursor);
                let lag = controller.with_core(|core| core.lag(id, channel, epoch, from, resume));
                let Ok((lagged_slots, lagged_file_blocks)) = lag else {
                    return false;
                };
                if lagged_slots > 0 {
                    self.ticket.erase(lagged_file_blocks as usize);
                }
                self.cursor = resume;
            }
            BatchRead::Cell(()) => {
                for cell in batch {
                    let heard = hear(
                        &mut self.ticket,
                        |channel| cell.lane(channel),
                        |channel, epoch| {
                            controller
                                .with_core(|core| core.note(id, channel, epoch))?
                                .ok_or(RuntimeError::Closed)
                        },
                        |channel, tx| {
                            self.counters.delivered.inc();
                            !self.errors.is_lost_on(channel, tx)
                        },
                    );
                    match heard {
                        Ok(Heard::Listening) => self.cursor += 1,
                        Ok(Heard::Completed) => {
                            let _ = controller.with_core(|core| core.complete(id));
                            return false;
                        }
                        // Cancelled (the core retired us when it answered),
                        // or retired / shut down before it could answer.
                        Ok(Heard::Cancelled) | Err(_) => return false,
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::tests as ring_tests;
    use crate::tests::{bcore_spec_stub, engine, insatiable_engine, server_for, BankEngine};
    use bdisk::{EpochBank, NoErrors};
    use bmode::ModeSpec;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicBool;

    type TestReader = Reader<BankEngine, NoErrors>;

    /// A serving core with no thread and no clock over `engine`, publishing
    /// onto a ring of `capacity` cells.
    fn world(
        engine: BankEngine,
        capacity: usize,
    ) -> (RuntimeController<BankEngine>, Arc<BroadcastRing>) {
        let ring = Arc::new(BroadcastRing::new(capacity));
        let controller = RuntimeController::new(engine, Vec::new(), Telemetry::new(), ring.clone());
        (controller, ring)
    }

    /// Seats a subscriber of `file` from slot 0 and returns its reader and
    /// detach flag.
    fn seat(
        controller: &RuntimeController<BankEngine>,
        file: u32,
    ) -> (TestReader, Arc<AtomicBool>) {
        let counters = Arc::new(SubscriberCounters::default());
        let detached = Arc::new(AtomicBool::new(false));
        let (id, ticket, start) = controller
            .with_core(|core| core.subscribe(FileId(file), 0, counters.clone(), detached.clone()))
            .unwrap()
            .unwrap();
        let reader = Reader {
            id,
            cursor: start,
            ticket,
            errors: NoErrors,
            counters,
        };
        (reader, detached)
    }

    /// Prepares `mode` from the stub's catalog and queues it for `at_slot`
    /// on the core, without waiting for it to land.
    fn queue_swap(controller: &RuntimeController<BankEngine>, mode: &str, at_slot: usize) {
        let prepared = controller
            .snapshot()
            .unwrap()
            .prepare(&ModeSpec::new(mode).file(bcore_spec_stub()))
            .unwrap();
        let (reply, _) = mpsc::channel();
        controller
            .with_core(|core| core.queue_swap(prepared, at_slot, SwapPolicy::Immediate, reply))
            .unwrap();
    }

    /// One serving step of at most `ready` slots.
    fn step(controller: &RuntimeController<BankEngine>, ready: usize) {
        controller
            .with_core(|core| core.serve_ready(ready, |_| None))
            .unwrap();
    }

    /// Insatiable readers of `files` seated at slot 0 on a core that then
    /// served slots `0..8`, with a swap to `mode` landed at slot 4; and
    /// those eight cells, read off the ring.
    fn swapped_at_4(
        mode: &str,
        files: &[u32],
    ) -> (
        RuntimeController<BankEngine>,
        Vec<TestReader>,
        Vec<Arc<SlotCell>>,
    ) {
        let (controller, ring) = world(insatiable_engine(), 16);
        let readers = files.iter().map(|&f| seat(&controller, f).0).collect();
        queue_swap(&controller, mode, 4);
        for _ in 0..8 {
            step(&controller, 1);
        }
        let mut cells = Vec::new();
        let read = ring.read_many(0, 16, &AtomicBool::new(false), &mut cells);
        assert!(matches!(read, BatchRead::Cell(())));
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[4].lane(0).unwrap().0, 1, "the swap landed at slot 4");
        (controller, readers, cells)
    }

    /// The slots in `cells` whose lane 0 carries `file`.
    fn carrying(cells: &[Arc<SlotCell>], file: u32) -> Vec<usize> {
        let carries = |c: &&Arc<SlotCell>| matches!(c.lane(0), Some((_, Some(tx))) if tx.block.file() == FileId(file));
        cells.iter().filter(carries).map(|c| c.slot).collect()
    }

    #[test]
    fn a_lag_span_books_the_replayed_counts_and_erases_the_files_blocks() {
        let (controller, _ring) = world(insatiable_engine(), 4);
        let (mut reader, _) = seat(&controller, 1);
        let resume = 16;
        assert!(reader.advance(BatchRead::Overwritten { resume }, &[], &controller));
        assert_eq!(reader.cursor, resume);
        let bank = controller.snapshot().unwrap().bank;
        let on_air: Vec<_> = (0..resume)
            .filter_map(|s| bank.transmit_ref(0, s))
            .collect();
        let of_file = on_air
            .iter()
            .filter(|tx| tx.block.file() == FileId(1))
            .count();
        assert!(0 < of_file && of_file < on_air.len());
        assert_eq!(reader.ticket.erased, of_file);
        assert!(reader.ticket.heard.is_empty());
        let stats = controller.stats().unwrap();
        assert_eq!(reader.counters.lagged_slots.get(), on_air.len() as u64);
        assert_eq!(reader.counters.lag_erasures.get(), of_file as u64);
        assert_eq!(stats.lagged_slots, on_air.len() as u64);
        assert_eq!(stats.lag_erasures, of_file as u64);
    }

    #[test]
    fn a_retune_mid_batch_keeps_the_collected_blocks() {
        let (controller, mut readers, cells) = swapped_at_4("keep", &[1]);
        let reader = &mut readers[0];
        assert!(reader.advance(BatchRead::Cell(()), &cells, &controller));
        assert_eq!((reader.ticket.channel, reader.ticket.epoch), (0, 1));
        assert_eq!(reader.cursor, 8);
        // Every cell with a block was heard, across the flip; the blocks
        // of file 1 from before it still count.
        let on_air: Vec<_> = cells
            .iter()
            .filter(|c| c.lanes[0].block.is_some())
            .map(|c| c.slot)
            .collect();
        assert_eq!(reader.ticket.heard, on_air);
        let kept = carrying(&cells, 1);
        assert!(kept.iter().any(|&s| s < 4) && kept.iter().any(|&s| s >= 4));
        assert_eq!(reader.ticket.received, kept.len());
        assert_eq!(controller.stats().unwrap().active_subscribers, 1);
    }

    #[test]
    fn a_cancel_stops_the_reader_without_kicking_the_ring() {
        let (controller, mut readers, cells) = swapped_at_4("other", &[1]);
        let ring = controller.with_core(|core| core.ring.clone()).unwrap();
        ring_tests::park(&ring, 8);
        let reader = &mut readers[0];
        assert!(!reader.advance(BatchRead::Cell(()), &cells, &controller));
        assert_eq!(reader.cursor, 4, "stopped at the flipped cell");
        assert_eq!(reader.ticket.cancelled_by.as_deref(), Some("swapped"));
        assert!(reader.ticket.heard.iter().all(|&s| s < 4));
        let stats = controller.stats().unwrap();
        assert_eq!((stats.cancelled, stats.active_subscribers), (1, 0));
        // The reader stops by itself: the readers parked on the ring are
        // left alone.  An unsubscribe, which comes from outside, kicks.
        assert_eq!(
            ring_tests::parked(&ring),
            1,
            "a cancellation kicked the ring"
        );
        let (other, _) = seat(&controller, 9);
        controller
            .with_core(|core| core.retire(other.id, true))
            .unwrap();
        assert_eq!(ring_tests::parked(&ring), 0);
    }

    #[test]
    fn a_departed_subscriber_stops_the_reader() {
        let (controller, mut readers, cells) = swapped_at_4("other", &[1]);
        let reader = &mut readers[0];
        let id = reader.id;
        controller.with_core(|core| core.retire(id, true)).unwrap();
        // A lag span of a departed reader books nothing …
        assert!(reader.advance(BatchRead::Overwritten { resume: 2 }, &[], &controller));
        assert_eq!(
            (reader.ticket.erased, reader.counters.lagged_slots.get()),
            (0, 0)
        );
        // … and the note it asks for at the flip is refused: it stops
        // there, unresolved, with no note applied.
        assert!(!reader.advance(BatchRead::Cell(()), &cells[2..], &controller));
        assert_eq!(reader.cursor, 4);
        assert!(reader.ticket.cancelled_by.is_none());
        assert_eq!(reader.ticket.epoch, 0);
        assert_eq!(controller.stats().unwrap().cancelled, 0);
        // A closed or detached read stops it too.
        assert!(!reader.advance(BatchRead::Detached, &[], &controller));
        assert!(!reader.advance(BatchRead::Closed, &[], &controller));
    }

    /// Checks, at every publish, that `brt_slots_served` counts only the
    /// cells the sinks were handed before this one, and records each cell
    /// and the slot each swap landed at.
    struct Handed {
        served: Counter,
        cells: Arc<Mutex<Vec<Arc<SlotCell>>>>,
        landed: Arc<Mutex<Vec<usize>>>,
    }

    impl SlotSink for Handed {
        fn publish(&mut self, cell: &SlotCell) {
            let mut cells = self.cells.lock().unwrap();
            assert_eq!(
                self.served.get(),
                cells.len() as u64,
                "counted before it was handed"
            );
            cells.push(Arc::new(cell.clone()));
        }
        fn mode_changed(&mut self, bank: &EpochBank) {
            if bank.epoch() > 0 {
                let handed = self.cells.lock().unwrap().len();
                self.landed.lock().unwrap().push(handed);
            }
        }
    }

    type Handouts = (Arc<Mutex<Vec<Arc<SlotCell>>>>, Arc<Mutex<Vec<usize>>>);

    fn handed(telemetry: &Telemetry) -> (Box<dyn SlotSink>, Handouts) {
        let (cells, landed) = Handouts::default();
        let sink = Handed {
            served: telemetry.registry().counter("brt_slots_served"),
            cells: cells.clone(),
            landed: landed.clone(),
        };
        (Box::new(sink), (cells, landed))
    }

    #[test]
    fn the_serving_step_counts_a_slot_only_after_its_sinks_have_it() {
        let telemetry = Telemetry::new();
        let (sink, (cells, landed)) = handed(&telemetry);
        let ring = Arc::new(BroadcastRing::new(8));
        let controller = RuntimeController::new(engine(), vec![sink], telemetry.clone(), ring);
        let served = telemetry.registry().counter("brt_slots_served");
        // Runs as the clock would size them: capped at the burst, and one
        // slot at a time while a swap is pending.
        let mut expect = 0;
        for (ready, run) in [(1, 1), (5, 5), (1000, SERVE_BURST), (0, 1)] {
            step(&controller, ready);
            expect += run;
            assert_eq!(served.get(), expect as u64);
            assert_eq!(cells.lock().unwrap().len(), expect);
        }
        queue_swap(&controller, "other", expect + 3);
        for _ in 0..3 {
            step(&controller, 1000);
            expect += 1;
            assert_eq!(served.get(), expect as u64);
        }
        // The third step reached the planned slot and landed the swap.
        assert_eq!(*landed.lock().unwrap(), [expect]);
        step(&controller, 1000);
        assert_eq!(served.get(), (expect + SERVE_BURST) as u64);
        assert_eq!(served.get(), cells.lock().unwrap().len() as u64);
    }

    /// One event of the interleaving search: a serving step of one slot,
    /// queueing the swap, or a reader's advance over one ring read.
    #[derive(Debug, Clone, Copy)]
    enum Move {
        Step,
        Swap,
        Read(usize),
    }

    const SLOTS: usize = 6;
    const SWAP_AT: usize = 3;
    const CAPACITY: usize = 2;

    /// A world of the search: a serving core with a recording sink, a ring
    /// of two cells and two readers — of file 1, which the swap to `keep`
    /// retunes, and of file 2, which it cancels — each needing 3 blocks.
    struct World {
        controller: RuntimeController<BankEngine>,
        ring: Arc<BroadcastRing>,
        served: Counter,
        cells: Arc<Mutex<Vec<Arc<SlotCell>>>>,
        landed: Arc<Mutex<Vec<usize>>>,
        readers: Vec<(TestReader, Arc<AtomicBool>, bool)>,
        swap_queued: bool,
    }

    /// What a world's future depends on, and what its checks read.
    type Fingerprint = (
        usize,
        bool,
        Vec<usize>,
        Vec<(bool, usize, u64, usize, Option<usize>)>,
    );

    /// What the searched runs did between them.
    #[derive(Default)]
    struct Seen {
        lag: bool,
        cancel: bool,
        complete: bool,
        late_swap: bool,
    }

    impl World {
        fn new(engine: &BankEngine) -> Self {
            let telemetry = Telemetry::new();
            let (sink, (cells, landed)) = handed(&telemetry);
            let ring = Arc::new(BroadcastRing::new(CAPACITY));
            let controller =
                RuntimeController::new(engine.clone(), vec![sink], telemetry.clone(), ring.clone());
            let readers = [1, 2].iter().map(|&f| {
                let (reader, detached) = seat(&controller, f);
                (reader, detached, true)
            });
            World {
                served: telemetry.registry().counter("brt_slots_served"),
                readers: readers.collect(),
                controller,
                ring,
                cells,
                landed,
                swap_queued: false,
            }
        }

        fn replay(
            engine: &BankEngine,
            path: &[Move],
            timelines: &[EpochBank],
            seen: &mut Seen,
        ) -> Self {
            let mut world = World::new(engine);
            for &event in path {
                world.apply(event, timelines, seen);
            }
            world
        }

        /// The events that can happen next.  A reader is scheduled only
        /// when the ring holds its cursor or has overwritten it, so no read
        /// blocks: with a sink attached no run is skipped, so the ring's
        /// tail is the served count.
        fn enabled(&self) -> Vec<Move> {
            let served = self.served.get() as usize;
            let mut moves = Vec::new();
            if served < SLOTS {
                moves.push(Move::Step);
            }
            if !self.swap_queued {
                moves.push(Move::Swap);
            }
            for (i, (reader, _, live)) in self.readers.iter().enumerate() {
                if *live && reader.cursor < served {
                    moves.push(Move::Read(i));
                }
            }
            moves
        }

        /// The slot timeline the runtime must serve: the swap flips the
        /// one lane from `[1, 2]` to `[1, 9]` at the slot it landed at.
        fn timeline<'t>(&self, timelines: &'t [EpochBank]) -> &'t EpochBank {
            let landed = self.landed.lock().unwrap().first().copied();
            &timelines[landed.unwrap_or(SLOTS + 1)]
        }

        fn apply(&mut self, event: Move, timelines: &[EpochBank], seen: &mut Seen) {
            match event {
                Move::Step => {
                    step(&self.controller, 1);
                    // No cell blends epochs: each is the timeline's slot.
                    let cells = self.cells.lock().unwrap();
                    let cell = cells.last().unwrap();
                    let timeline = self.timeline(timelines);
                    assert_eq!(cell.slot, cells.len() - 1);
                    let expect = timeline
                        .transmit_ref(0, cell.slot)
                        .map(|tx| *tx.block.header());
                    let epoch = timeline.epoch_at(0, cell.slot).unwrap();
                    assert_eq!(cell.lane(0).map(|(e, _)| e), Some(epoch));
                    assert_eq!(cell.lanes[0].block.as_ref().map(|b| *b.header()), expect);
                }
                Move::Swap => {
                    queue_swap(&self.controller, "keep", SWAP_AT);
                    self.swap_queued = true;
                }
                Move::Read(i) => self.read(i, timelines, seen),
            }
            // The served count never runs ahead of what the sinks have.
            assert_eq!(self.served.get(), self.cells.lock().unwrap().len() as u64);
            if self
                .landed
                .lock()
                .unwrap()
                .first()
                .is_some_and(|&at| at > SWAP_AT)
            {
                seen.late_swap = true;
            }
        }

        /// One reader advance, checked: the reader sees each slot of the
        /// span it covers once, or books it as lag on its tuned mode.
        fn read(&mut self, i: usize, timelines: &[EpochBank], seen: &mut Seen) {
            let timeline = self.timeline(timelines);
            let (reader, detached, live) = &mut self.readers[i];
            let before = reader.cursor;
            let tuned = reader.ticket.epoch;
            let heard = reader.ticket.heard.len();
            let (lagged, erased) = (reader.counters.lagged_slots.get(), reader.ticket.erased);
            let mut batch = Vec::new();
            let read = self
                .ring
                .read_many(before, READ_BATCH, detached, &mut batch);
            let resume = match read {
                BatchRead::Cell(()) => {
                    let slots: Vec<_> = batch.iter().map(|c| c.slot).collect();
                    assert_eq!(slots, (before..before + batch.len()).collect::<Vec<_>>());
                    None
                }
                BatchRead::Overwritten { resume } => {
                    assert!(before < resume);
                    Some(resume)
                }
                other => panic!("a live reader read {other:?}"),
            };
            *live = reader.advance(read, &batch, &self.controller);
            let ticket = &reader.ticket;
            let completed = ticket.received >= 3;
            if !*live {
                assert!(
                    completed || ticket.cancelled_by.is_some(),
                    "stopped unresolved"
                );
                seen.complete |= completed;
                seen.cancel |= ticket.cancelled_by.is_some();
            }
            let new_heard = &ticket.heard[heard.saturating_sub(1)..];
            assert!(
                new_heard.windows(2).all(|w| w[0] < w[1]),
                "a slot heard twice"
            );
            let new_heard = &ticket.heard[heard..];
            if let Some(resume) = resume {
                seen.lag = true;
                assert_eq!(reader.cursor, resume);
                assert!(new_heard.is_empty());
                let mut on_air = (0, 0);
                for slot in before..resume {
                    if timeline.epoch_at(0, slot) != Some(tuned) {
                        continue;
                    }
                    if let Some(tx) = timeline.transmit_ref(0, slot) {
                        on_air.0 += 1;
                        on_air.1 += usize::from(tx.block.file() == ticket.file);
                    }
                }
                assert_eq!(reader.counters.lagged_slots.get() - lagged, on_air.0);
                assert_eq!(ticket.erased - erased, on_air.1);
            } else {
                // A reader that completed stops at the cell it completed on.
                let end = reader.cursor + usize::from(!*live && completed);
                let carried = batch
                    .iter()
                    .filter(|c| c.slot < end && c.lanes[0].block.is_some());
                let expect: Vec<_> = carried.map(|c| c.slot).collect();
                assert_eq!(new_heard, expect, "reader {i} from slot {before}");
            }
        }

        fn fingerprint(&self) -> Fingerprint {
            let readers = self.readers.iter().map(|(r, _, live)| {
                let last_heard = r.ticket.heard.last().copied();
                (
                    *live,
                    r.cursor,
                    r.ticket.epoch,
                    r.ticket.received,
                    last_heard,
                )
            });
            (
                self.served.get() as usize,
                self.swap_queued,
                self.landed.lock().unwrap().clone(),
                readers.collect(),
            )
        }
    }

    /// Every interleaving of serving steps, reader advances and one swap,
    /// at small bounds, with no thread and no clock.  The search visits
    /// every reachable state and takes every enabled event from each, and
    /// every check is about one event — so each event of every interleaving
    /// is checked, without replaying the ~10⁵ interleavings one by one.
    #[test]
    fn every_interleaving_of_steps_reads_and_a_swap_keeps_the_broadcast_whole() {
        let mut engine = engine();
        engine.threshold = 3;
        let timelines: Vec<EpochBank> = (0..=SLOTS + 1)
            .map(|at| {
                let mut bank = EpochBank::new(vec![server_for(&[1, 2])]).unwrap();
                if at <= SLOTS {
                    bank.swap(at, vec![server_for(&[1, 9])]).unwrap();
                }
                bank
            })
            .collect();
        let mut seen = Seen::default();
        let mut visited = BTreeSet::new();
        visited.insert(World::new(&engine).fingerprint());
        // Depth first: a state's world takes its first event, and a replay
        // of its path each of the others.
        let mut frontier = vec![(Vec::new(), World::new(&engine))];
        let mut events = 0;
        while let Some((path, state)) = frontier.pop() {
            let moves = state.enabled();
            let mut state = Some(state);
            for event in moves {
                let mut world = state
                    .take()
                    .unwrap_or_else(|| World::replay(&engine, &path, &timelines, &mut seen));
                world.apply(event, &timelines, &mut seen);
                events += 1;
                if visited.insert(world.fingerprint()) {
                    frontier.push(([&path[..], &[event]].concat(), world));
                }
            }
        }
        assert!(seen.lag && seen.cancel && seen.complete && seen.late_swap);
        assert!(
            visited.len() > 500,
            "{} states, {events} events",
            visited.len()
        );
    }
}
