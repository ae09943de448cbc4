//! The broadcast station: an owned, ready-to-serve broadcast disk — or a
//! bank of several, when the file set is sharded across parallel channels —
//! whose per-channel programs can be *hot-swapped* between operating modes.

use crate::mode::{Handover, Mode};
use crate::{Error, PreparedMode, Retrieval, RetrievalResolution, SwapReport};
use bcore::{BdiskDesigner, DesignReport, GeneralizedFileSpec, ShardPlanner};
use bdisk::{
    BroadcastProgram, BroadcastServer, ChannelErrorModel, EpochBank, FileSet, TransmissionRef,
};
use bmode::{diff, ChannelView, CurrentMode, ModePlanner, ModeSpec, SwapPolicy};
use ida::{Dispersal, FileId};
use pinwheel::Schedule;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A designed, verified and content-loaded broadcast disk, ready to serve.
///
/// Built by [`crate::Broadcast::builder`]; owns the file set, one verified
/// broadcast program *per channel*, the dispersed contents, the file →
/// channel routing table, and the per-file [`Dispersal`] configurations — so
/// a [`Retrieval`] obtained from [`Station::subscribe`] is always tuned to
/// the channel that carries its file and always reconstructs with the
/// correct `(mᵢ, nᵢ)` parameters.
///
/// With the default single channel the station behaves exactly like the
/// paper's model; `Broadcast::builder().channels(k)` shards the file set
/// across `k` slot-synchronized channels (see [`bcore::ShardPlanner`]).
///
/// ## Mode transitions
///
/// A station is mutable *at the program level*: [`Station::prepare_mode`]
/// designs and verifies a target [`ModeSpec`] off the hot path, and
/// [`Station::swap`] installs it with an epoch-bumped, slot-aligned atomic
/// swap — per channel, so channels the transition does not touch keep
/// broadcasting byte-identically.  In-flight [`Retrieval`]s carry their
/// epoch and either survive (their channel unchanged), transparently
/// re-subscribe (their file survives with identical dispersal parameters
/// and contents), or resolve to [`Error::ModeChanged`] per the
/// [`SwapPolicy`].
///
/// Driven synchronously, a station keeps its whole program and swap
/// history.  Served concurrently ([`Station::serve_concurrent`]), it keeps
/// only what a live reader can still ask about: after each landed swap the
/// runtime retires the segments and swap records behind its retention
/// floor, so memory does not grow with the refresh count.
#[derive(Debug, Clone)]
pub struct Station {
    settings: Settings,
    /// What is on the air, shared with every clone, snapshot and
    /// preparation of this station; a swap replaces the pointer.
    pub(crate) mode: Arc<Mode>,
    bank: EpochBank,
    swaps: Vec<SwapRecord>,
    /// Per channel, the epoch of the newest retired swap record that
    /// flipped it: a retrieval tuned to the channel below that epoch would
    /// find its note gone.
    retired_flips: BTreeMap<usize, u64>,
}

/// What the builder fixes for the station's whole life, across every mode.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Settings {
    pub(crate) listen_cap: usize,
    pub(crate) channels: ShardPlanner,
    /// Whether every dispersal is Merkle-committed ([`bauth`]) so clients
    /// verify blocks on receive; set by `Broadcast::builder().authenticated`.
    pub(crate) authenticated: bool,
}

/// One executed swap, kept so drivers can resolve in-flight retrievals that
/// observe the epoch bump.  Flip *timing* lives in the bank's segment
/// timeline; this record carries what decides the per-file dispositions,
/// which are worked out only for the retrievals that ask.
#[derive(Debug, Clone)]
struct SwapRecord {
    epoch: u64,
    flipped: BTreeSet<usize>,
    handover: Handover,
}

impl Station {
    pub(crate) fn new(
        settings: Settings,
        mode: Mode,
        servers: Vec<Arc<BroadcastServer>>,
    ) -> Result<Self, Error> {
        Ok(Station {
            settings,
            mode: Arc::new(mode),
            bank: EpochBank::new(servers)?,
            swaps: Vec::new(),
            retired_flips: BTreeMap::new(),
        })
    }

    /// Whether this station Merkle-commits every dispersal so clients verify
    /// blocks on receive (`Broadcast::builder().authenticated(true)`).
    pub fn is_authenticated(&self) -> bool {
        self.settings.authenticated
    }

    /// The Merkle commitment root of `file` as served right now: the root
    /// every block of the file's current dispersal carries an inclusion
    /// proof against.  `None` on unauthenticated stations and for unknown
    /// files.  Mode swaps that re-disperse a file republish its new root
    /// here automatically (the root lives with the serving program).
    pub fn commitment_root_of(&self, file: FileId) -> Option<bauth::Root> {
        let channel = self.channel_of(file)?;
        self.bank
            .current(channel)?
            .dispersed(file)?
            .commitment_root()
    }

    /// The dispersal configuration `file` is served with right now — the
    /// one a [`Retrieval`] of it reconstructs with.  Shared by every mode
    /// that keeps the file's `(m, n)`.  `None` for unknown files.
    pub fn dispersal_of(&self, file: FileId) -> Option<&Arc<Dispersal>> {
        self.mode.dispersals.get(&file)
    }

    /// The specifications this station's current mode was designed from.
    pub fn specs(&self) -> &[GeneralizedFileSpec] {
        &self.mode.specs
    }

    /// The specification of one file.
    pub fn spec(&self, file: FileId) -> Option<&GeneralizedFileSpec> {
        self.mode.specs.iter().find(|s| s.id == file)
    }

    /// The broadcast file set (sizes, dispersal widths, latency vectors) of
    /// the current mode, merged across channels in specification order.
    pub fn files(&self) -> &FileSet {
        &self.mode.files
    }

    /// The name of the mode currently on the air (`"initial"` until the
    /// first swap).
    pub fn mode(&self) -> &str {
        &self.mode.name
    }

    /// The station's epoch (0 until the first swap; each swap bumps it).
    pub fn epoch(&self) -> u64 {
        self.bank.epoch()
    }

    /// Number of broadcast channels in the current mode.
    pub fn channel_count(&self) -> usize {
        self.bank.channel_count()
    }

    /// The channel carrying `file` in the current mode, if the station
    /// carries it at all.
    pub fn channel_of(&self, file: FileId) -> Option<usize> {
        self.bank.channel_of(file)
    }

    /// The verified broadcast program of the first channel (the *only*
    /// channel of an unsharded station); see [`Station::program_of`] for the
    /// others.
    pub fn program(&self) -> &BroadcastProgram {
        self.server().program()
    }

    /// The current verified broadcast program of one channel.
    pub fn program_of(&self, channel: usize) -> Option<&BroadcastProgram> {
        Some(self.bank.current(channel)?.program())
    }

    /// The pinwheel schedule the first channel's current program was derived
    /// from.
    pub fn schedule(&self) -> &Schedule {
        &self.reports()[0].schedule
    }

    /// The heaviest per-channel density of the scheduled nice conjuncts
    /// (each channel's density is the quantity compared against 7/10 by the
    /// paper's Equations 1 and 2; every channel stays ≤ 1).
    pub fn density(&self) -> f64 {
        self.mode.design.max_density()
    }

    /// The density of one channel's scheduled nice conjunct.
    pub fn density_of(&self, channel: usize) -> Option<f64> {
        self.reports().get(channel).map(|r| r.density)
    }

    /// The design report of the first channel (the *only* channel of an
    /// unsharded station); see [`Station::reports`] for all of them.
    pub fn report(&self) -> &DesignReport {
        &self.reports()[0]
    }

    /// The per-channel design reports of the current mode.
    pub fn reports(&self) -> &[DesignReport] {
        &self.mode.design.reports
    }

    /// The underlying broadcast server of the first channel's current
    /// program, for power users and the simulator; see [`Station::bank`]
    /// for the full epoch-aware channel bank.
    pub fn server(&self) -> &BroadcastServer {
        self.bank
            .current(0)
            .expect("every mode serves at least channel 0")
    }

    /// The epoch-aware channel bank: per-channel program timelines, the
    /// versioned routing table and the swap primitive underneath
    /// [`Station::swap`].
    pub fn bank(&self) -> &EpochBank {
        &self.bank
    }

    /// The maximum number of slots a driven retrieval may listen before
    /// [`Station::run_until_complete`] reports it stalled.
    pub fn listen_cap(&self) -> usize {
        self.settings.listen_cap
    }

    /// What the first channel transmits in `slot` (borrowed; no copy).
    /// Slot time is epoch-aware: slots before a flip replay the program that
    /// was on the air then.  A station that has been served concurrently
    /// keeps that history only back to its retention floor
    /// ([`EpochBank::retired_before`]); earlier slots read as `None`.
    pub fn transmit(&self, slot: usize) -> Option<TransmissionRef<'_>> {
        self.bank.transmit_ref(0, slot)
    }

    /// What every channel transmits in `slot`, in channel order, into a
    /// caller-owned buffer (cleared and refilled) — what the station's own
    /// slot drivers use, so a serve loop over many slots never allocates per
    /// slot.
    pub fn transmit_all_into<'a>(
        &'a self,
        slot: usize,
        out: &mut Vec<Option<TransmissionRef<'a>>>,
    ) {
        self.bank.transmit_all_into(slot, out);
    }

    /// Subscribes a client to `file` (of the current mode) starting at
    /// `at_slot`.
    ///
    /// The returned [`Retrieval`] is tuned to the channel carrying the file
    /// and internally carries the file's reconstruction threshold, dispersal
    /// configuration and channel epoch — there is no caller-side routing or
    /// `Dispersal::new` to get wrong.  Unknown files yield
    /// [`Error::UnknownFile`], never a panic.
    ///
    /// Subscriptions always attach to the *latest* mode.  During a pending
    /// [`SwapPolicy::Drain`] window (swap requested, flip deferred), a
    /// subscription to a file whose channel is flipping hears nothing until
    /// the flip slot — its latency still counts from `at_slot`, so its
    /// Lemma 3 deadline is only meaningful for `at_slot` at or after the
    /// reported [`SwapReport::flip_slot`].  Subscriptions to files on
    /// untouched channels are unaffected.
    pub fn subscribe(&self, file: FileId, at_slot: usize) -> Result<Retrieval, Error> {
        let unknown = || Error::UnknownFile(file);
        let channel = self.channel_of(file).ok_or_else(unknown)?;
        let f = self.mode.files.get(file).ok_or_else(unknown)?;
        let dispersal = self.dispersal_of(file).ok_or_else(unknown)?;
        let epoch = self.bank.current_epoch_of(channel).ok_or_else(unknown)?;
        Ok(Retrieval::new(
            file,
            at_slot,
            (channel, epoch),
            dispersal.clone(),
            f.latencies.clone(),
            self.commitment_root_of(file),
        ))
    }

    /// An infinite slot-by-slot view of the first channel, starting at
    /// `start`: yields `(slot, transmission)` pairs, `None` for idle slots.
    /// The view is epoch-aware: it replays whatever was (or will be) on the
    /// air in each slot, across mode swaps — back to the retention floor on
    /// a station that has been served concurrently (see
    /// [`Station::transmit`]).
    pub fn stream(&self, start: usize) -> Stream<'_> {
        self.stream_channel(0, start)
            .expect("every mode serves at least channel 0")
    }

    /// The slot-by-slot view of one channel.
    pub fn stream_channel(&self, channel: usize, start: usize) -> Option<Stream<'_>> {
        if channel >= self.bank.lane_count() {
            return None;
        }
        Some(Stream {
            bank: &self.bank,
            channel,
            slot: start,
        })
    }

    // ------------------------------------------------------------------
    // Mode transitions
    // ------------------------------------------------------------------

    /// Designs and verifies `mode` off the hot path, ready for
    /// [`Station::swap`]: shard planning, per-channel scheduling, program
    /// verification, dispersal of contents — everything but the flip.
    ///
    /// A program derives from the file specifications alone, so a target
    /// that keeps the specifications on the air and states no channel budget
    /// of its own — a content refresh — reuses the verified design on the
    /// air instead of searching for it again; only the diff and the
    /// dispersal run.
    ///
    /// Files retained from the current mode keep their current contents;
    /// files new to `mode` serve deterministic synthetic payloads (use
    /// [`Station::prepare_mode_with_contents`] to supply real bytes).
    pub fn prepare_mode(&self, mode: &ModeSpec) -> Result<PreparedMode, Error> {
        self.prepare_mode_with_contents(mode, BTreeMap::new())
    }

    /// [`Station::prepare_mode`] with explicit contents for some of the
    /// target mode's files.  Supplying content for a file forces its channel
    /// to flip (the bytes on the wire change), even if the program layout is
    /// identical.
    pub fn prepare_mode_with_contents(
        &self,
        mode: &ModeSpec,
        new_contents: BTreeMap<FileId, Vec<u8>>,
    ) -> Result<PreparedMode, Error> {
        let serving = &*self.mode;
        // Diff against what is on the air now.  Explicit bytes that differ
        // from what the station serves make their file content-dirty.
        let current = CurrentMode {
            specs: &serving.specs,
            channels: serving
                .design
                .reports
                .iter()
                .map(|r| ChannelView {
                    program: &r.program,
                    files: &r.files,
                })
                .collect(),
            dirty: new_contents
                .iter()
                .filter(|(id, bytes)| !serving.serves(**id, bytes))
                .map(|(id, _)| *id)
                .collect(),
        };
        // The designer is deterministic in the specifications, and every
        // mode is planned by the station's own shard planner and designer:
        // when the specifications are the ones the design on the air came
        // from, re-planning would reproduce it.  Anything else re-plans
        // through the same seams that built the station.
        let (specs, design, transition) = if mode.resolves_to(&serving.specs) {
            let transition = diff(&current, mode.name(), &serving.design);
            (serving.specs.clone(), serving.design.clone(), transition)
        } else {
            let planner = ModePlanner::new(self.settings.channels, BdiskDesigner::default());
            let plan = planner.plan(&current, mode)?;
            let specs = mode.resolved_specs().into();
            (specs, Arc::new(plan.design), plan.transition)
        };
        let (next, servers) = Mode::load(
            mode.name(),
            specs,
            design,
            new_contents,
            self.settings.authenticated,
            Some((self, &transition)),
        )?;
        Ok(PreparedMode {
            servers,
            transition,
            handover: Handover {
                from: self.mode.clone(),
                to: Arc::new(next),
                dirty: current.dirty,
            },
            base_epoch: self.bank.epoch(),
        })
    }

    /// Installs a prepared mode with an epoch-bumped, slot-aligned atomic
    /// swap requested at `at_slot` (the caller's "now" on the slot clock).
    ///
    /// * Under [`SwapPolicy::Immediate`] the changed channels flip at
    ///   `at_slot`; in-flight retrievals whose file cannot be carried over
    ///   resolve to [`Error::ModeChanged`] the next time they are driven.
    /// * Under [`SwapPolicy::Drain`] the flip is deferred past the
    ///   transition's Lemma 3 drain horizon, so every in-flight retrieval of
    ///   an affected file that stays within its declared fault tolerance
    ///   completes under the old program first.
    ///
    /// Channels the transition does not touch keep broadcasting
    /// byte-identically (their epoch does not bump), and retrievals tuned to
    /// them are never affected.  `at_slot` must not precede a slot already
    /// driven (slot time is monotonic); a preparation made before another
    /// swap landed is rejected with [`Error::StalePreparation`].
    ///
    /// New subscriptions made inside a drain window (after `swap` returns,
    /// for slots before the returned [`SwapReport::flip_slot`]) attach to
    /// the *new* mode and wait for the flip — see [`Station::subscribe`] —
    /// so latency-sensitive post-swap work should subscribe at or after the
    /// flip slot.
    ///
    /// A swap retires no history: the swapped-out program segment, with
    /// the payloads it serves, stays readable for replays before the flip.
    /// Only a served station's runtime drops segments behind its retention
    /// floor, so a station that is only driven synchronously grows with
    /// every swap — about 48 KB per content refresh of one 32 KiB file at
    /// `(m, n) = (8, 10)`, most of it the new bytes and their coded blocks.
    ///
    /// The swap itself copies no per-file state: the bank keeps its routing
    /// when no file moves, and the swap record keeps the two modes and the
    /// replaced files, from which a retrieval's re-subscription is worked
    /// out when it asks.
    pub fn swap(
        &mut self,
        prepared: PreparedMode,
        at_slot: usize,
        policy: SwapPolicy,
    ) -> Result<SwapReport, Error> {
        if prepared.base_epoch != self.bank.epoch() {
            return Err(Error::StalePreparation {
                prepared_epoch: prepared.base_epoch,
                current_epoch: self.bank.epoch(),
            });
        }
        let flip_slot = match policy {
            SwapPolicy::Immediate => at_slot,
            SwapPolicy::Drain => at_slot + prepared.transition.drain_horizon as usize,
        };
        let applied = self.bank.swap(flip_slot, prepared.servers)?;
        debug_assert_eq!(
            applied.flipped,
            prepared.transition.changed_channels(),
            "the bank's Arc-identity diff must agree with the planned transition"
        );
        self.mode = prepared.handover.to.clone();
        self.swaps.push(SwapRecord {
            epoch: applied.epoch,
            flipped: applied.flipped.iter().copied().collect(),
            handover: prepared.handover,
        });
        Ok(SwapReport {
            mode: self.mode.name.clone(),
            epoch: applied.epoch,
            requested_slot: at_slot,
            flip_slot,
            policy,
            transition: prepared.transition,
            flipped_channels: applied.flipped,
        })
    }

    // ------------------------------------------------------------------
    // Drivers
    // ------------------------------------------------------------------

    /// Drives every retrieval in `retrievals` to completion in one pass over
    /// the broadcast — across *all* channels at once — and returns their
    /// outcomes (in input order).
    ///
    /// ## Sampling order (locked in)
    ///
    /// The slot cursor starts at the earliest request slot among the
    /// incomplete retrievals and visits slots in ascending order; within a
    /// slot, channels are driven **serially, in the order their first
    /// listening retrieval appears in the fleet**, and `errors` is sampled
    /// **lazily, at most once per `(slot, channel)`** — on that first
    /// listening retrieval, and never for idle slots, dark channels, or
    /// channels nobody listens to.
    /// The samples drawn for any one channel therefore form a strictly
    /// slot-ordered sequence, which is what keeps per-channel-seeded models
    /// (e.g. [`crate::IndependentChannels`]) seed-compatible with the
    /// concurrent runtime ([`Station::serve_concurrent`]), where each
    /// subscriber samples its own model per delivered slot of its channel —
    /// also in slot order.  `tests/runtime_properties.rs` pins this order
    /// with a recording model.
    ///
    /// The shared sample means the model represents *channel-level* loss
    /// common to every listener of that channel (for independent per-client
    /// error processes, drive clients in separate calls).  Any
    /// [`bdisk::ErrorModel`] works here (one loss process shared across
    /// channels); [`crate::IndependentChannels`],
    /// [`crate::CorrelatedChannels`] and [`crate::OnChannel`] express
    /// per-channel scenarios.  Already-complete retrievals are left untouched
    /// and simply contribute their outcome.
    ///
    /// Returns [`Error::NoSubscribers`] for an empty fleet,
    /// [`Error::RetrievalStalled`] if any retrieval listens for more than
    /// the station's listen cap (counted from its own request slot) without
    /// completing, and [`Error::ModeChanged`] if a mode swap cancelled any
    /// of the retrievals (use [`Station::run_until_resolved`] to receive
    /// per-retrieval resolutions instead of a fleet-level error).
    pub fn run_until_complete(
        &self,
        retrievals: &mut [Retrieval],
        errors: &mut impl ChannelErrorModel,
    ) -> Result<Vec<bdisk::RetrievalOutcome>, Error> {
        if retrievals.is_empty() {
            return Err(Error::NoSubscribers);
        }
        self.drive(retrievals, errors, None)?;
        retrievals.iter().map(Retrieval::finish).collect()
    }

    /// Drives every retrieval until it *resolves* — completes, or is
    /// cancelled by a mode swap — and returns the per-retrieval resolutions
    /// (in input order).  This is the mode-transition-aware driver: a
    /// cancelled retrieval is a data point
    /// ([`RetrievalResolution::ModeChanged`]), not a fleet-level error.
    pub fn run_until_resolved(
        &self,
        retrievals: &mut [Retrieval],
        errors: &mut impl ChannelErrorModel,
    ) -> Result<Vec<RetrievalResolution>, Error> {
        if retrievals.is_empty() {
            return Err(Error::NoSubscribers);
        }
        self.drive(retrievals, errors, None)?;
        retrievals
            .iter()
            .map(|r| {
                r.resolution()
                    .expect("drive(None) leaves every retrieval resolved")
            })
            .collect()
    }

    /// Drives the retrievals only through slots `< end_slot`, leaving
    /// them partially complete — the building block for swapping modes
    /// mid-flight: drive to the swap slot, [`Station::swap`], keep driving.
    ///
    /// Retrievals that resolve earlier stop consuming slots; the rest stay
    /// in flight.
    pub fn run_until_slot(
        &self,
        retrievals: &mut [Retrieval],
        errors: &mut impl ChannelErrorModel,
        end_slot: usize,
    ) -> Result<(), Error> {
        self.drive(retrievals, errors, Some(end_slot))
    }

    /// The shared slot-driver — a thin adapter over the `brt` runtime's
    /// synchronous engine ([`brt::drive`]), so the serial drivers and
    /// [`Station::serve_concurrent`] ride the same epoch-resolution and
    /// observation machinery.  Stops when all retrievals are resolved, or
    /// at `stop_before` (exclusive) if given.
    fn drive(
        &self,
        retrievals: &mut [Retrieval],
        errors: &mut impl ChannelErrorModel,
        stop_before: Option<usize>,
    ) -> Result<(), Error> {
        brt::drive(self, retrievals, errors, stop_before, self.listen_cap()).map_err(|e| match e {
            brt::DriveError::Stalled { file, listened } => {
                Error::RetrievalStalled { file, listened }
            }
            // A retrieval from a *different* (wider) station names a channel
            // this bank never had: surface the routing miss, don't panic.
            brt::DriveError::UnknownChannel(file) => Error::UnknownFile(file),
        })
    }

    /// Convenience single-client wrapper: subscribe, drive to completion,
    /// reconstruct.
    pub fn retrieve(
        &self,
        file: FileId,
        at_slot: usize,
        errors: &mut impl ChannelErrorModel,
    ) -> Result<bdisk::RetrievalOutcome, Error> {
        let mut retrieval = self.subscribe(file, at_slot)?;
        let mut outcomes = self.run_until_complete(std::slice::from_mut(&mut retrieval), errors)?;
        Ok(outcomes.pop().expect("one retrieval yields one outcome"))
    }
}

/// The station *is* the runtime's engine: [`Station::serve_concurrent`]
/// moves it onto the serving thread, and the synchronous drivers run over
/// the same seam inline — one set of epoch/observation/swap semantics for
/// both paths.
impl brt::Engine for Station {
    type Ticket = Retrieval;
    type Prepared = PreparedMode;
    type Report = SwapReport;
    type Error = Error;

    fn bank(&self) -> &EpochBank {
        &self.bank
    }

    fn subscribe(&self, file: FileId, at_slot: usize) -> Result<Retrieval, Error> {
        Station::subscribe(self, file, at_slot)
    }

    /// The disposition of a retrieval of `file`, tuned to `channel` at
    /// `epoch`, after the channel's epoch moved past it: the first swap the
    /// retrieval has not seen decides between transparent re-subscription
    /// and cancellation.  A retrieval with no matching swap record (it came
    /// from a different station) cancels rather than loops forever.
    fn note_for(&self, file: FileId, channel: usize, epoch: u64) -> brt::SwapNote {
        debug_assert!(
            self.retired_flips
                .get(&channel)
                .is_none_or(|&floor| epoch >= floor),
            "a retrieval tuned to channel {channel} at epoch {epoch} asks for a retired note"
        );
        let record = self
            .swaps
            .iter()
            .find(|s| s.epoch > epoch && s.flipped.contains(&channel));
        let Some(record) = record else {
            return brt::SwapNote::Cancel {
                mode: self.mode.name.clone(),
            };
        };
        let flips = |channel: usize| record.flipped.contains(&channel);
        match record.handover.resubscription(file, flips) {
            Some((channel, dispersal, latencies)) => brt::SwapNote::Retune {
                channel,
                epoch: record.epoch,
                dispersal,
                latencies,
            },
            None => brt::SwapNote::Cancel {
                mode: record.handover.to.name.clone(),
            },
        }
    }

    /// Drops the program history below `slot` and the swap records up to
    /// `epoch`.  Only the runtime calls it: the synchronous drivers keep the
    /// station's whole history.
    fn retire(&mut self, slot: usize, epoch: u64) {
        self.bank.retire_before(slot);
        let retired = self.swaps.partition_point(|s| s.epoch <= epoch);
        for record in self.swaps.drain(..retired) {
            for &channel in &record.flipped {
                self.retired_flips.insert(channel, record.epoch);
            }
        }
    }

    fn snapshot(&self) -> Self {
        self.clone()
    }

    fn prepare(&self, mode: &ModeSpec) -> Result<PreparedMode, Error> {
        self.prepare_mode(mode)
    }

    fn swap(
        &mut self,
        prepared: PreparedMode,
        at_slot: usize,
        policy: SwapPolicy,
    ) -> Result<SwapReport, Error> {
        Station::swap(self, prepared, at_slot, policy)
    }
}

impl AsRef<BroadcastServer> for Station {
    /// The first channel's current server — so single-channel consumers
    /// (e.g. the Monte-Carlo simulator) keep working against a sharded or
    /// swapped station.
    fn as_ref(&self) -> &BroadcastServer {
        self.server()
    }
}

/// The iterator returned by [`Station::stream`] and
/// [`Station::stream_channel`].
#[derive(Debug, Clone)]
pub struct Stream<'a> {
    bank: &'a EpochBank,
    channel: usize,
    slot: usize,
}

impl<'a> Iterator for Stream<'a> {
    type Item = (usize, Option<TransmissionRef<'a>>);

    fn next(&mut self) -> Option<Self::Item> {
        let slot = self.slot;
        self.slot += 1;
        Some((slot, self.bank.transmit_ref(self.channel, slot)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Broadcast;
    use bdisk::NoErrors;

    fn spec(id: u32, size: u32, latencies: &[u32]) -> GeneralizedFileSpec {
        GeneralizedFileSpec::new(FileId(id), size, latencies.to_vec()).unwrap()
    }

    fn two_channel_station() -> Station {
        Broadcast::builder()
            .files((1..=4).map(|i| spec(i, 1, &[8 + 2 * i, 12 + 2 * i])))
            .channels(2)
            .build()
            .unwrap()
    }

    #[test]
    fn empty_fleets_error_instead_of_driving_nothing() {
        let station = two_channel_station();
        assert!(matches!(
            station.run_until_complete(&mut [], &mut NoErrors),
            Err(Error::NoSubscribers)
        ));
        assert!(matches!(
            station.run_until_resolved(&mut [], &mut NoErrors),
            Err(Error::NoSubscribers)
        ));
        // The partial driver stays a no-op on an empty fleet: it is the
        // mid-swap building block and "nothing in flight" is a valid state.
        assert!(station.run_until_slot(&mut [], &mut NoErrors, 100).is_ok());
    }

    #[test]
    fn preparing_the_same_mode_is_a_noop_swap() {
        let mut station = two_channel_station();
        let same = ModeSpec::new("same").files(station.specs().to_vec());
        let prepared = station.prepare_mode(&same).unwrap();
        assert!(prepared.is_noop());
        let report = station.swap(prepared, 40, SwapPolicy::Immediate).unwrap();
        assert!(report.flipped_channels.is_empty());
        assert_eq!(station.mode(), "same");
        assert_eq!(station.epoch(), 1);
        // Everything still retrieves.
        let outcome = station.retrieve(FileId(3), 50, &mut NoErrors).unwrap();
        assert!(!outcome.data.is_empty());
    }

    #[test]
    fn swap_cancels_dropped_files_and_preserves_untouched_channels() {
        let mut station = two_channel_station();
        let victim = FileId(1);
        let victim_channel = station.channel_of(victim).unwrap();
        let witness = station
            .specs()
            .iter()
            .map(|s| s.id)
            .find(|f| station.channel_of(*f) != Some(victim_channel))
            .expect("two channels carry different files");

        // In-flight retrievals: one on the victim's channel, one elsewhere —
        // plus a second victim handle driven through run_until_complete
        // later, to check the fleet-level error surface.
        let mut in_flight = vec![
            station.subscribe(victim, 0).unwrap(),
            station.subscribe(witness, 0).unwrap(),
        ];
        let mut doomed = vec![station.subscribe(victim, 0).unwrap()];
        // Tighten the victim's latency so only its channel flips... by
        // *dropping* the victim entirely.
        let target = ModeSpec::new("without-victim").files(
            station
                .specs()
                .iter()
                .filter(|s| s.id != victim)
                .cloned()
                .collect::<Vec<_>>(),
        );
        let prepared = station.prepare_mode(&target).unwrap();
        assert!(prepared.transition().dropped.contains(&victim));
        let unchanged_before: Vec<usize> = prepared.transition().unchanged_channels();

        // Byte-identity witness: record what the unchanged channels transmit
        // around the flip before swapping.
        let report = station.swap(prepared, 0, SwapPolicy::Immediate).unwrap();
        assert_eq!(report.flip_slot, 0);
        for &c in &unchanged_before {
            assert!(!report.flipped_channels.contains(&c));
        }

        let resolutions = station
            .run_until_resolved(&mut in_flight, &mut NoErrors)
            .unwrap();
        assert!(resolutions[0].is_mode_changed());
        match &resolutions[1] {
            RetrievalResolution::Complete(outcome) => assert_eq!(outcome.file, witness),
            other => panic!("witness retrieval should complete, got {other:?}"),
        }
        // The dropped file is gone from the new mode.
        assert!(matches!(
            station.subscribe(victim, 100),
            Err(Error::UnknownFile(f)) if f == victim
        ));
        // run_until_complete (unlike run_until_resolved) surfaces the
        // cancellation as a typed fleet-level error: `doomed` was in flight
        // on the victim's channel when the swap landed.
        let err = station
            .run_until_complete(&mut doomed, &mut NoErrors)
            .unwrap_err();
        assert!(matches!(err, Error::ModeChanged { file, .. } if file == victim));
        assert!(doomed[0].is_cancelled());
    }

    #[test]
    fn drain_policy_defers_the_flip_past_the_lemma_3_horizon() {
        let mut station = two_channel_station();
        let victim = FileId(1);
        let d_max = *station.spec(victim).unwrap().latencies.last().unwrap();
        let target = ModeSpec::new("drained").files(
            station
                .specs()
                .iter()
                .filter(|s| s.id != victim)
                .cloned()
                .collect::<Vec<_>>(),
        );
        let prepared = station.prepare_mode(&target).unwrap();
        assert!(prepared.transition().drain_horizon >= d_max);

        // An in-flight retrieval of the victim, requested at the swap slot:
        // under drain it must complete under the old program.
        let mut in_flight = vec![station.subscribe(victim, 10).unwrap()];
        let report = station.swap(prepared, 10, SwapPolicy::Drain).unwrap();
        assert_eq!(
            report.flip_slot,
            10 + report.transition.drain_horizon as usize
        );
        assert!(report.swap_latency() >= d_max as usize);
        let resolutions = station
            .run_until_resolved(&mut in_flight, &mut NoErrors)
            .unwrap();
        match &resolutions[0] {
            RetrievalResolution::Complete(outcome) => {
                assert!(outcome.completion_slot < report.flip_slot);
            }
            other => panic!("drained retrieval should complete, got {other:?}"),
        }
    }

    #[test]
    fn compatible_files_resubscribe_across_a_reshard() {
        // Dropping the densest file re-packs the rest under the station's
        // own two-channel planner: file 2 moves channels, but it keeps its
        // (m, n) and contents, so its in-flight retrieval transparently
        // re-subscribes instead of cancelling.
        let mut station = two_channel_station();
        let file = FileId(2);
        let old_channel = station.channel_of(file).unwrap();
        let mut in_flight = vec![station.subscribe(file, 0).unwrap()];
        let target = ModeSpec::new("without-1").files(
            station
                .specs()
                .iter()
                .filter(|s| s.id != FileId(1))
                .cloned(),
        );
        let prepared = station.prepare_mode(&target).unwrap();
        assert!(prepared.resubscribable().any(|f| f == file));
        station.swap(prepared, 0, SwapPolicy::Immediate).unwrap();
        assert_eq!(station.channel_count(), 2);
        let new_channel = station.channel_of(file).unwrap();
        assert_ne!(new_channel, old_channel, "the file was re-packed");
        let resolutions = station
            .run_until_resolved(&mut in_flight, &mut NoErrors)
            .unwrap();
        match &resolutions[0] {
            RetrievalResolution::Complete(outcome) => {
                assert_eq!(outcome.file, file);
                assert!(!outcome.data.is_empty());
            }
            other => panic!("compatible retrieval should survive, got {other:?}"),
        }
        assert_eq!(in_flight[0].channel(), new_channel);
        assert_eq!(in_flight[0].epoch(), 1);
    }

    #[test]
    fn clones_snapshots_and_swaps_share_the_mode_and_its_payloads() {
        let station = Broadcast::builder()
            .files((1..=3).map(|i| spec(i, 1, &[8 + 2 * i, 12 + 2 * i])))
            .channels(2)
            .authenticated(true)
            .content(FileId(1), vec![1u8; 512])
            .content(FileId(2), vec![2u8; 512])
            .content(FileId(3), vec![3u8; 512])
            .build()
            .unwrap();
        // Three files on two channels: `moving` is refreshed below, `beside`
        // shares its channel, `kept` has the other channel to itself.
        let (moving, beside, kept) = shared_and_lone(&station);
        let kept_channel = station.channel_of(kept).unwrap();

        // A clone — and so a runtime snapshot, taken under the serving core —
        // is a pointer copy of the mode: no payload, no design report.
        let before = station.clone();
        assert!(Arc::ptr_eq(&before.mode, &station.mode));
        let runtime = station.serve_concurrent(brt::ManualClock::new());
        let snapshot = runtime.snapshot().unwrap();
        assert!(Arc::ptr_eq(&snapshot.mode, &before.mode));
        let mut station = runtime.shutdown().unwrap();
        assert!(Arc::ptr_eq(&station.mode, &before.mode));

        // Refresh one file's bytes: its channel flips, and the file on the
        // other channel rides into the next mode as the same allocation —
        // stored payload, dispersal configuration and serving program.
        let report = refresh(&mut station, moving);
        assert!(!report.flipped_channels.contains(&kept_channel));
        assert!(!Arc::ptr_eq(&station.mode, &before.mode));
        let (old, new) = (&before.mode, &station.mode);
        assert_eq!(old.contents[&kept].as_ptr(), new.contents[&kept].as_ptr());
        assert!(Arc::ptr_eq(&old.dispersals[&kept], &new.dispersals[&kept]));
        // The specifications did not change, so neither did the design.
        assert!(Arc::ptr_eq(&old.design, &new.design));
        assert!(Arc::ptr_eq(
            &before.bank.current_arc(kept_channel).unwrap(),
            &station.bank.current_arc(kept_channel).unwrap()
        ));
        assert_eq!(&new.contents[&moving][..], &[9u8; 512][..]);
        assert_eq!(before.mode(), "initial");
        assert_eq!(station.mode(), "refreshed");

        // On the flipped channel only the refreshed file was dispersed and
        // committed again: the file beside it serves the very blocks (and
        // root) it served before.
        assert_eq!(block_ptrs(&before, beside), block_ptrs(&station, beside));
        assert_eq!(
            before.commitment_root_of(beside),
            station.commitment_root_of(beside)
        );
        assert_ne!(block_ptrs(&before, moving), block_ptrs(&station, moving));
        assert_ne!(
            before.commitment_root_of(moving),
            station.commitment_root_of(moving)
        );

        // The same holds for a file serving the synthetic default.
        let mut station = two_channel_station();
        let before = station.clone();
        let (moving, beside, _) = shared_and_lone(&station);
        refresh(&mut station, moving);
        assert_eq!(block_ptrs(&before, beside), block_ptrs(&station, beside));
        assert_ne!(block_ptrs(&before, moving), block_ptrs(&station, moving));
    }

    #[test]
    fn an_authenticated_station_stores_each_file_once() {
        let specs = || (1..=3).map(|i| spec(i, 3, &[12 + 4 * i, 18 + 4 * i]));
        let sizes = Broadcast::builder().files(specs()).channels(2).build();
        let sizes = sizes.unwrap().files().clone();
        let content = |id: FileId, salt: u8| -> Vec<u8> {
            let len = sizes.get(id).unwrap().total_bytes();
            (0..len).map(|i| (i * 7) as u8 ^ salt).collect()
        };
        let mut builder = Broadcast::builder()
            .files(specs())
            .channels(2)
            .authenticated(true);
        for f in sizes.files() {
            builder = builder.content(f.id, content(f.id, f.id.0 as u8));
        }
        let mut station = builder.build().unwrap();
        let (moving, beside, kept) = shared_and_lone(&station);

        // Every systematic block of a stored file is a view of the mode's
        // one copy of it; coded blocks live in buffers of their own.
        let stored_once = |station: &Station, file: FileId| {
            let stored = &station.mode.contents[&file];
            let inside = |p: *const u8| stored.as_ptr_range().contains(&p);
            let m = station.files().get(file).unwrap().size_blocks;
            assert!(m > 1 && station.files().get(file).unwrap().dispersed_blocks > m);
            for (index, block) in block_ptrs(station, file).into_iter().enumerate() {
                assert_eq!(inside(block), index < m as usize, "{file} block {index}");
            }
        };
        for file in [moving, beside, kept] {
            stored_once(&station, file);
        }

        // A one-file refresh re-disperses that file alone: the others serve
        // the same buffers, the refreshed file's blocks view its new bytes.
        let before = station.clone();
        let fresh = content(moving, 0xA5);
        let same = ModeSpec::new("refreshed").files(station.specs().to_vec());
        let prepared = station
            .prepare_mode_with_contents(&same, BTreeMap::from([(moving, fresh.clone())]))
            .unwrap();
        station.swap(prepared, 0, SwapPolicy::Immediate).unwrap();
        for file in [beside, kept] {
            assert_eq!(block_ptrs(&before, file), block_ptrs(&station, file));
        }
        stored_once(&station, moving);
        let mut retrieval = vec![station.subscribe(moving, 0).unwrap()];
        let outcome = station.run_until_complete(&mut retrieval, &mut NoErrors);
        assert_eq!(outcome.unwrap()[0].data, fresh);

        // A length that is not a multiple of `m` pads the last source block:
        // that one block is a copy, and the file still reconstructs exactly.
        let dispersal = ida::Dispersal::authenticated(4, 7).unwrap();
        let bytes = ida::Bytes::from((0..1001).map(|i| (i * 13) as u8).collect::<Vec<u8>>());
        let dispersed = dispersal.disperse_bytes(FileId(9), &bytes).unwrap();
        let root = dispersed.commitment_root().unwrap();
        let blocks = dispersed.blocks();
        for (index, block) in blocks.iter().enumerate() {
            let ptr = block.payload().as_ptr();
            assert_eq!(
                bytes.as_ptr_range().contains(&ptr),
                index < 3,
                "block {index}"
            );
            assert!(dispersal.verify_block(&root, block));
        }
        assert_eq!(&blocks[3].payload()[..248], &bytes[753..]);
        assert_eq!(&blocks[3].payload()[248..], &[0u8; 3]);
        assert_eq!(dispersal.reconstruct(&blocks[..4]).unwrap(), &bytes[..]);
        assert_eq!(dispersal.reconstruct(&blocks[3..]).unwrap(), &bytes[..]);
    }

    /// Swaps in the same mode with new bytes for `file`, at slot 0.
    fn refresh(station: &mut Station, file: FileId) -> SwapReport {
        let same = ModeSpec::new("refreshed").files(station.specs().to_vec());
        let prepared = station
            .prepare_mode_with_contents(&same, BTreeMap::from([(file, vec![9u8; 512])]))
            .unwrap();
        station.swap(prepared, 0, SwapPolicy::Immediate).unwrap()
    }

    /// Two files sharing a channel and one file of another channel.
    fn shared_and_lone(station: &Station) -> (FileId, FileId, FileId) {
        let ids: Vec<FileId> = station.specs().iter().map(|s| s.id).collect();
        let channel = |id: &FileId| station.channel_of(*id).unwrap();
        for a in &ids {
            let beside = ids.iter().find(|b| *b != a && channel(b) == channel(a));
            let lone = ids.iter().find(|c| channel(c) != channel(a));
            if let (Some(b), Some(c)) = (beside, lone) {
                return (*a, *b, *c);
            }
        }
        panic!("no two files share a channel");
    }

    /// Where the blocks `file` is served from live: equal before and after
    /// a swap only if the file was carried over, not dispersed again.
    fn block_ptrs(station: &Station, file: FileId) -> Vec<*const u8> {
        let server = station.bank.current(station.channel_of(file).unwrap());
        let dispersed = server.unwrap().dispersed(file).unwrap();
        let ptrs = dispersed.blocks().iter().map(|b| b.payload().as_ptr());
        ptrs.collect()
    }

    #[test]
    fn stale_preparations_are_rejected() {
        let mut station = two_channel_station();
        let same = ModeSpec::new("same").files(station.specs().to_vec());
        let first = station.prepare_mode(&same).unwrap();
        let second = station.prepare_mode(&same).unwrap();
        station.swap(first, 0, SwapPolicy::Immediate).unwrap();
        assert!(matches!(
            station.swap(second, 10, SwapPolicy::Immediate),
            Err(Error::StalePreparation {
                prepared_epoch: 0,
                current_epoch: 1
            })
        ));
    }

    #[test]
    fn swaps_cannot_rewrite_the_past() {
        let mut station = two_channel_station();
        let drop_one = ModeSpec::new("m1").files(station.specs()[1..].to_vec());
        let prepared = station.prepare_mode(&drop_one).unwrap();
        station.swap(prepared, 100, SwapPolicy::Immediate).unwrap();
        let back = ModeSpec::new("m2").files(station.specs().to_vec());
        let prepared = station.prepare_mode(&back).unwrap();
        assert!(matches!(
            station.swap(prepared, 50, SwapPolicy::Immediate),
            Err(Error::Server(bdisk::ServerError::SwapInPast { .. }))
        ));
    }
}
