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
//! * The **server loop** waits on the [`SlotClock`] for a run of ready
//!   slots and advances the run one of two ways.  When nothing can observe
//!   it (no live subscriber, no sink) the ring skips it.  Otherwise it is
//!   served: each slot's lanes are snapshotted into one [`SlotCell`]; each
//!   cell, in slot order, goes to every [`SlotSink`] and is then counted in
//!   `brt_slots_served`; and the run is published to the [`BroadcastRing`]
//!   under one lock with one wake of the readers it satisfies —
//!   independent of the fleet size.  Then the cursor moves and every swap
//!   whose planned slot it reached lands, before the core is unlocked: no
//!   swap is ever due while the core is free.  The server never touches
//!   per-subscriber state on the data path.
//! * Each **client task** holds a cursor into the ring, resolves its own
//!   epoch transitions against the published lane epochs, samples its own
//!   reception-error process, and feeds its retrieval.  A reader that falls
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
use crate::engine::{resolve_epoch, Engine, Subscriber, SwapNote, Tuning};
use crate::ring::{BatchRead, BroadcastRing, LaneCell, SlotCell};
use crate::sink::SlotSink;
use bdisk::{ChannelErrorModel, TransmissionRef};
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
        let shared = Arc::new(Shared {
            core: Mutex::new(Some(Core {
                engine,
                slot: 0,
                next_id: 0,
                next_seq: 0,
                subscribers: BTreeMap::new(),
                pending: Vec::new(),
                sinks,
                fleet: FleetMetrics::new(telemetry.registry()),
                telemetry: telemetry.clone(),
                ring: ring.clone(),
                published: published.clone(),
            })),
            asked: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
        });
        let server = {
            let (shared, clock, waker) = (shared.clone(), clock.clone(), waker.clone());
            std::thread::Builder::new()
                .name("brt-server".to_string())
                .spawn(move || server_loop(&shared, &clock, &waker))
                .expect("the broadcast server thread spawns")
        };
        Runtime {
            controller: RuntimeController {
                shared,
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
    /// subscriber has departed.  A cancel retires it.
    fn note(&mut self, id: u64, channel: usize, epoch: u64) -> Option<SwapNote> {
        let entry = self.subscribers.get_mut(&id)?;
        let note = self.engine.note_for(entry.file, channel, epoch);
        if let SwapNote::Retune { epoch, .. } = &note {
            entry.epoch = *epoch;
        } else {
            self.retire(id, true);
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

    /// One step of the serving loop on a ready clock: serves (or skips) the
    /// run of ready slots at the cursor, moves the cursor past it and lands
    /// every swap the cursor reached — so no swap is due while the core is
    /// unlocked.
    fn serve_ready(&mut self, clock: &SlotClock) {
        let slot = self.slot;
        // One clock query sizes a whole burst of due slots; nothing can
        // change the engine or the fleet while the core is held, so the
        // burst serves in one hold.  The cap bounds how long a call waits
        // for its boundary, and a pending swap forces slot-at-a-time
        // serving so it lands exactly at its planned slot.
        let run = if self.pending.is_empty() {
            clock.ready_run(slot).clamp(1, SERVE_BURST)
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
            self.serve_run(slot..slot + run, clock);
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
    /// while recording is on and the clock has deadlines, so a
    /// `ManualClock` run records nothing nondeterministic.
    fn serve_run(&mut self, run: Range<usize>, clock: &SlotClock) {
        let timed = self.telemetry.recording() && clock.slot_lateness(run.start).is_some();
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
                if let Some(lateness) = clock.slot_lateness(slot) {
                    self.fleet.slot_lateness_ns.record(lateness);
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

/// The serving thread: steps the core whenever the clock has a ready run,
/// holding the core's lock for the step, and parks on `waker` while no slot
/// is due.  Returns the engine once the clock closes.
fn server_loop<E: Engine>(shared: &Shared<E>, clock: &SlotClock, waker: &WakeSignal) -> E {
    let mut held = loop {
        let mut held = shared.lock().expect("serving core lock");
        let core = held.as_mut().expect("only the serving loop ends the core");
        match clock.poll(core.slot) {
            ClockPoll::Closed => break held,
            ClockPoll::Ready => {
                core.serve_ready(clock);
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
                // Self-account the overwritten span as lag: the core
                // replays the span's schedule (off the data path) and books
                // the counts; the ticket records the erasures.
                let (channel, epoch) = (ticket.channel(), ticket.epoch());
                let lag = controller.with_core(|core| core.lag(id, channel, epoch, cursor, resume));
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
                    // core in stream order.
                    let tuning = resolve_epoch(
                        &mut ticket,
                        |channel| cell.lanes.get(channel)?.epoch,
                        |channel, epoch| {
                            controller
                                .with_core(|core| core.note(id, channel, epoch))?
                                .ok_or(RuntimeError::Closed)
                        },
                    );
                    let channel = match tuning {
                        Ok(Tuning::Listen(channel)) => channel,
                        Ok(Tuning::Wait) => {
                            cursor += 1;
                            continue;
                        }
                        // Cancelled (the core retired us when it answered),
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
                            let _ = controller.with_core(|core| core.complete(id));
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
