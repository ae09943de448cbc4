//! The engine seam: what the runtime needs from a broadcast station.
//!
//! `brt` is deliberately generic over the thing that actually owns programs,
//! contents and mode transitions — the `rtbdisk` facade's `Station`
//! implements [`Engine`] (and its `Retrieval` implements [`Subscriber`]),
//! but the runtime machinery itself only ever talks through these traits,
//! so it can be unit-tested against a stub and reused over any slot source
//! with an epoch timeline.
//!
//! [`Subscriber`] is the one client interface, and one reader step
//! (`hear`) is the only code that feeds it: the synchronous driver calls
//! it per subscriber per slot, and the threaded runtime's readers per cell
//! of the broadcast ring.

use bdisk::{EpochBank, LatencyVector, TransmissionRef};
use bmode::{ModeSpec, SwapPolicy};
use ida::{Dispersal, FileId};
use std::sync::Arc;

/// What happens to a subscriber whose channel's epoch moved past the one it
/// is tuned to: the engine either carries it over (same file, identical
/// dispersed representation, possibly a new channel) or cancels it.
///
/// The payload is expressed entirely in `bdisk`/`ida` types so the note can
/// cross the runtime's threads without referencing facade types.
#[derive(Debug, Clone)]
pub enum SwapNote {
    /// Transparent re-subscription: retune to `channel` under `epoch`; the
    /// blocks collected so far stay valid.
    Retune {
        /// The channel now carrying the file.
        channel: usize,
        /// The epoch the channel serves under after the swap.
        epoch: u64,
        /// The (unchanged-parameters) dispersal configuration to continue
        /// with — shared, which saves only the generator build and keeps
        /// the retrieval on the configuration its blocks came from.
        dispersal: Arc<Dispersal>,
        /// The file's declared latency vector in the new mode.
        latencies: LatencyVector,
    },
    /// The retrieval cannot be carried over (its file was dropped or
    /// re-dispersed); it resolves as cancelled by `mode`.
    Cancel {
        /// The mode whose swap cancelled the retrieval.
        mode: String,
    },
}

/// A client-side retrieval handle as the slot drivers see it: tuning state,
/// observation, and swap-note application.
pub trait Subscriber {
    /// The file being retrieved.
    fn file(&self) -> FileId;
    /// The channel the subscriber is currently tuned to.
    fn channel(&self) -> usize;
    /// The program epoch the subscriber is tuned to.
    fn epoch(&self) -> u64;
    /// The slot the subscription was issued at.
    fn request_slot(&self) -> usize;
    /// `true` once the subscriber needs no further slots (completed or
    /// cancelled).
    fn is_resolved(&self) -> bool;
    /// Feeds one transmission of the tuned channel (idle slots are never
    /// fed); returns `true` if it completed the retrieval.
    fn observe(&mut self, transmission: TransmissionRef<'_>, received_ok: bool) -> bool;
    /// Records `count` reception errors observed out of band: blocks of the
    /// file that went by while a lagging reader's ring span was overwritten.
    fn erase(&mut self, count: usize);
    /// Applies a swap note (retune or cancel).
    fn apply(&mut self, note: &SwapNote);
}

/// What one slot did to a subscriber (see [`hear`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Heard {
    /// It is still listening: it heard a block that did not complete it,
    /// or nothing (a dark or idle lane, or its mode not on the air yet).
    Listening,
    /// The slot completed its retrieval.
    Completed,
    /// A swap note cancelled it.
    Cancelled,
}

/// The reader step, the only code that feeds a [`Subscriber`]: one slot
/// as it hears it, where `lane(channel)` is the channel's epoch and
/// transmission this slot (`None` while dark).  Both slot drivers run it.
///
/// A lane that is dark or still serving an older mode is waited on; one
/// serving the subscriber's epoch is listened to; one that flipped past it
/// makes the subscriber apply the first swap it has not seen
/// (`fetch_note(channel, epoch)`: inline from the engine, or a call on the
/// runtime's serving core that can fail with `X`) — retune and look again,
/// or cancel.  A listened lane's transmission, unless the slot is idle, is
/// sampled by `received_ok(channel, transmission)` and observed.
pub(crate) fn hear<'a, S: Subscriber, X>(
    subscriber: &mut S,
    lane: impl Fn(usize) -> Option<(u64, Option<TransmissionRef<'a>>)>,
    mut fetch_note: impl FnMut(usize, u64) -> Result<SwapNote, X>,
    received_ok: impl FnOnce(usize, TransmissionRef<'a>) -> bool,
) -> Result<Heard, X> {
    let (channel, transmission) = loop {
        let channel = subscriber.channel();
        match lane(channel) {
            Some((epoch, tx)) if epoch == subscriber.epoch() => break (channel, tx),
            Some((epoch, _)) if epoch > subscriber.epoch() => {
                let note = fetch_note(channel, subscriber.epoch())?;
                subscriber.apply(&note);
                if let SwapNote::Cancel { .. } = note {
                    return Ok(Heard::Cancelled);
                }
            }
            _ => return Ok(Heard::Listening),
        }
    };
    let Some(tx) = transmission else {
        return Ok(Heard::Listening);
    };
    Ok(if subscriber.observe(tx, received_ok(channel, tx)) {
        Heard::Completed
    } else {
        Heard::Listening
    })
}

/// The serving side: the epoch-aware channel bank the slot drivers read,
/// and the mode-transition surface the runtime drives.
///
/// Per-slot transmissions and the epoch timeline are read straight off
/// [`Engine::bank`]; `subscribe` / `note_for` / `prepare` / `swap` /
/// `retire` are the station-level operations the facade provides.
pub trait Engine: Send + 'static {
    /// The subscription handle this engine hands out (the facade's
    /// `Retrieval`).
    type Ticket: Subscriber + Send + 'static;
    /// A fully designed mode ready to swap in (the facade's `PreparedMode`).
    type Prepared: Send + 'static;
    /// What an executed swap reports (the facade's `SwapReport`).
    type Report: Send + 'static;
    /// The engine's error type.
    type Error: core::fmt::Display + Send + 'static;

    /// The channel bank on the air: per-lane transmissions and the epoch
    /// timeline, in slot time.
    fn bank(&self) -> &EpochBank;

    /// Subscribes to `file` starting at `at_slot`, tuned to the latest mode.
    fn subscribe(&self, file: FileId, at_slot: usize) -> Result<Self::Ticket, Self::Error>;

    /// The disposition of a subscriber of `file`, tuned to `channel` at
    /// `epoch`, after the channel's epoch moved past it: the first swap the
    /// subscriber has not seen decides between retune and cancel.
    fn note_for(&self, file: FileId, channel: usize, epoch: u64) -> SwapNote;

    /// Releases history no live reader can still ask about: program slots
    /// below `slot` (see [`EpochBank::retire_before`]) and the swap notes of
    /// every swap up to and including `epoch`.  The runtime calls it after
    /// each landed swap, with `slot` at or below every slot a live reader
    /// may still replay and `epoch` at or below every live subscriber's
    /// tuned epoch.  Keeps everything by default.
    fn retire(&mut self, slot: usize, epoch: u64) {
        let _ = (slot, epoch);
    }

    /// A snapshot the preparation thread can design against while the
    /// serving thread keeps transmitting (stale preparations are rejected
    /// by [`Engine::swap`]).  The runtime takes one when it starts and after
    /// each landed swap, under its serving core's lock, and hands out clones
    /// of it, so it should cost handles, not payloads.
    fn snapshot(&self) -> Self
    where
        Self: Sized;

    /// Designs and verifies `mode` — the expensive, off-the-hot-path half of
    /// a transition.
    fn prepare(&self, mode: &ModeSpec) -> Result<Self::Prepared, Self::Error>;

    /// Installs a prepared mode with a slot-aligned atomic swap requested at
    /// `at_slot`.
    fn swap(
        &mut self,
        prepared: Self::Prepared,
        at_slot: usize,
        policy: SwapPolicy,
    ) -> Result<Self::Report, Self::Error>;
}
