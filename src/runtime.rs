//! Concurrent serving: the facade over the `brt` runtime.
//!
//! [`Station::serve_concurrent`] moves a station onto a dedicated serving
//! thread paced by a [`brt::SlotClock`] and returns a [`RuntimeHandle`]:
//! subscribe and unsubscribe while the broadcast is on the air, prepare and
//! schedule mode swaps that flip at planned slot boundaries, read per-client
//! and fleet statistics, and shut down gracefully (getting the station
//! back).
//!
//! Each subscription runs a client task of its own, reading the shared
//! broadcast ring through a cursor of its own and sampling its *own*
//! reception-error process — the physically sensible model for independent
//! receivers.  The serving loop publishes each slot exactly once; it never
//! touches per-subscriber state on the data path, so fan-out cost does not
//! grow with the fleet.  A client that falls more than the ring's capacity
//! behind observes the overwrite and self-accounts the skipped span as lag;
//! skipped slots that carried blocks of its file are recorded as erasures
//! (exactly as if its channel had lost those receptions).

use crate::{Error, PreparedMode, Retrieval, RetrievalResolution, Station, SwapReport};
use bdisk::{ChannelErrorModel, NoErrors};
use bmode::{ModeSchedule, ModeSpec, SwapPolicy};
use brt::{RuntimeConfig, RuntimeError, RuntimeStats, SubscriptionStats};
use ida::FileId;

impl Station {
    /// Puts the station on the air: spawns the slot-clocked serving thread
    /// and returns the control handle.  [`RuntimeHandle::shutdown`] returns
    /// the station.
    ///
    /// Use a [`brt::WallClock`] for real pacing and a [`brt::ManualClock`]
    /// for deterministic tests (no slot is served until the clock is
    /// advanced).
    pub fn serve_concurrent(self, clock: impl Into<brt::SlotClock>) -> RuntimeHandle {
        self.serve_concurrent_with(clock, RuntimeConfig::default())
    }

    /// [`Station::serve_concurrent`] with explicit runtime tunables (e.g. a
    /// smaller broadcast ring to exercise lag behaviour).
    pub fn serve_concurrent_with(
        self,
        clock: impl Into<brt::SlotClock>,
        config: RuntimeConfig,
    ) -> RuntimeHandle {
        RuntimeHandle {
            inner: brt::Runtime::spawn(self, clock, config),
        }
    }
}

fn facade_error(error: RuntimeError<Error>) -> Error {
    match error {
        RuntimeError::Closed => Error::RuntimeClosed,
        RuntimeError::Engine(e) => e,
    }
}

/// The control handle of a concurrently serving [`Station`].
#[derive(Debug)]
pub struct RuntimeHandle {
    inner: brt::Runtime<Station>,
}

impl RuntimeHandle {
    /// Wraps a spawned runtime (the network-serving path spawns it with
    /// sinks attached).
    pub(crate) fn from_inner(inner: brt::Runtime<Station>) -> Self {
        RuntimeHandle { inner }
    }

    /// Subscribes a lossless client to `file` starting at `at_slot` and
    /// spawns its client task.  Slots served before the subscription
    /// registers are gone (a broadcast does not rewind); delivery starts at
    /// the next served slot.
    pub fn subscribe(&self, file: FileId, at_slot: usize) -> Result<ClientHandle, Error> {
        self.subscribe_with(file, at_slot, NoErrors)
    }

    /// [`RuntimeHandle::subscribe`] with the client's own reception-error
    /// process.  The model is sampled once per delivered data slot of the
    /// client's channel, in slot order — so a per-channel-seeded model
    /// reproduces exactly what a single-retrieval synchronous drive with
    /// the same model would observe.
    pub fn subscribe_with(
        &self,
        file: FileId,
        at_slot: usize,
        errors: impl ChannelErrorModel + Send + 'static,
    ) -> Result<ClientHandle, Error> {
        let inner = self
            .inner
            .subscribe_with(file, at_slot, errors)
            .map_err(facade_error)?;
        Ok(ClientHandle { inner })
    }

    /// Detaches a client from the broadcast: its detach flag is raised, its
    /// task stops reading the ring and finishes (most likely with
    /// [`Error::RetrievalIncomplete`]).
    pub fn unsubscribe(&self, client: &ClientHandle) {
        self.inner.unsubscribe(&client.inner);
    }

    /// A clone of the serving station as of the last landed swap — what
    /// [`RuntimeHandle::prepare_mode`] designs against, and a window into
    /// current routing/epochs for diagnostics.  The runtime publishes the
    /// station after each landed swap, before the swap's requester hears
    /// back, so this clones what was published without waiting for a
    /// serving run.  Its program history reaches back only to the
    /// retention floor ([`bdisk::EpochBank::retired_before`]): slots below
    /// it read as `None`.
    pub fn snapshot(&self) -> Result<Station, Error> {
        self.inner.snapshot().map_err(facade_error)
    }

    /// Designs and verifies `mode` against a snapshot of the serving
    /// station, on the caller's thread — the serving loop keeps
    /// transmitting.  Swap the result in with [`RuntimeHandle::swap_at`].
    pub fn prepare_mode(&self, mode: &ModeSpec) -> Result<PreparedMode, Error> {
        self.snapshot()?.prepare_mode(mode)
    }

    /// Schedules `prepared` to be swapped in when the serving loop reaches
    /// `at_slot` and blocks until the swap was applied.  A swap the loop
    /// has already reached lands on the calling thread at the next run
    /// boundary, even while the clock is parked.  A future-dated one waits
    /// for the clock: with a [`brt::ManualClock`], advance it to `at_slot`
    /// from another thread — the swap applies at the boundary.
    pub fn swap_at(
        &self,
        prepared: PreparedMode,
        at_slot: usize,
        policy: SwapPolicy,
    ) -> Result<SwapReport, Error> {
        self.inner
            .swap_at(prepared, at_slot, policy)
            .map_err(facade_error)
    }

    /// Plays a [`ModeSchedule`] against the running station on a scheduler
    /// thread of its own: each event's mode is prepared off the serving
    /// thread and swapped in at its planned slot.  Events run strictly in
    /// order.
    pub fn run_schedule(&self, schedule: ModeSchedule) -> ScheduleHandle {
        ScheduleHandle {
            inner: brt::run_schedule(self.inner.controller(), schedule),
        }
    }

    /// Fleet-level statistics, read on the calling thread at the serving
    /// loop's next run boundary.
    pub fn stats(&self) -> Result<RuntimeStats, Error> {
        self.inner.stats().map_err(facade_error)
    }

    /// The runtime's telemetry: the metrics registry behind
    /// [`RuntimeHandle::stats`], the slot-lateness and serving-phase
    /// histograms, and the typed event trace.  Call
    /// [`bobs::Telemetry::set_recording`] to enable histogram and trace
    /// recording (counters always run); snapshot or export at any time.
    pub fn telemetry(&self) -> &bobs::Telemetry {
        self.inner.telemetry()
    }

    /// Slots the server has transmitted so far: the `brt_slots_served`
    /// counter [`RuntimeHandle::stats`] reads too, pollable without taking
    /// the serving core's lock (a `stats` call waits for the run in
    /// progress, and the serving loop steps aside for it).
    /// A slot counts once every sink (the network fan-out) has sent it,
    /// which can be before the in-process ring holds it.
    pub fn slots_served(&self) -> u64 {
        self.inner.slots_served()
    }

    /// Stops the serving loop (closing the ring and detaching every client)
    /// and returns the station, ready to serve again — synchronously or
    /// under a fresh runtime.  While it served, the runtime retired the
    /// history no live client could read any more: the station keeps its
    /// program only back to the retention floor
    /// ([`bdisk::EpochBank::retired_before`]), so drive it from slots at or
    /// after that floor, with retrievals subscribed after the shutdown.
    pub fn shutdown(self) -> Result<Station, Error> {
        self.inner.shutdown().map_err(facade_error)
    }
}

/// One concurrent client: a handle to the task retrieving a file off the
/// running broadcast.
#[derive(Debug)]
pub struct ClientHandle {
    inner: brt::Subscription<Retrieval>,
}

impl ClientHandle {
    /// The runtime-assigned subscriber id.
    pub fn id(&self) -> u64 {
        self.inner.id()
    }

    /// A snapshot of the client's delivery counters (delivered slots,
    /// lag-dropped slots, lag-induced erasures).
    pub fn stats(&self) -> SubscriptionStats {
        self.inner.stats()
    }

    /// `true` once the client task has resolved ([`ClientHandle::join`]
    /// will not block).
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    /// Waits for the retrieval to resolve and returns its resolution:
    /// [`RetrievalResolution::Complete`] with the reconstructed bytes,
    /// [`RetrievalResolution::ModeChanged`] when a swap cancelled it, or
    /// [`Error::RetrievalIncomplete`] when the runtime shut down (or the
    /// client was unsubscribed) mid-flight.
    pub fn join(self) -> Result<RetrievalResolution, Error> {
        let retrieval = self.inner.join();
        // In flight means neither cancelled nor complete, which is exactly
        // when `finish` reports `RetrievalIncomplete`.
        retrieval
            .resolution()
            .unwrap_or_else(|| retrieval.finish().map(RetrievalResolution::Complete))
    }
}

/// A handle to a running [`ModeSchedule`] playback; joins to one
/// [`brt::ScheduleOutcome`] per event, carrying the [`SwapReport`]s.
#[derive(Debug)]
pub struct ScheduleHandle {
    inner: brt::SwapScheduler<SwapReport>,
}

impl ScheduleHandle {
    /// `true` once every scheduled event has been executed (or failed).
    pub fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }

    /// Waits for the schedule to finish; one outcome per event, in order.
    pub fn join(self) -> Vec<brt::ScheduleOutcome<SwapReport>> {
        self.inner.join()
    }
}
