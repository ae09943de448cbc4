//! The synchronous slot driver — the single-threaded engine core that the
//! facade's `Station::run_until_complete` / `run_until_resolved` /
//! `run_until_slot` are thin adapters over.
//!
//! It feeds each unresolved subscriber through the same reader step
//! (`hear`) the threaded [`crate::Runtime`]'s readers run per ring cell:
//! one slot's lane epochs resolve the subscriber's mode (wait, listen, or
//! fetch a note inline from [`Engine::note_for`] and retune or cancel), and
//! a listened lane's transmission is sampled and observed.  Idle slots are
//! fed to nobody.  What differs is only where a slot comes from — here,
//! read straight off the bank into one reused buffer per slot — so
//! `tests/runtime_properties.rs` pins the two drivers byte-identical.
//!
//! ## Error-sampling order (locked in)
//!
//! The synchronous driver visits slots in ascending order and, within a
//! slot, channels in the order listening subscribers reference them; the
//! error model is sampled **lazily, at most once per `(slot, channel)`**,
//! on the first listening subscriber of that channel, and never for idle
//! slots, dark channels, or channels nobody listens to.  Consequently the
//! samples drawn *for any one channel* form a strictly slot-ordered
//! subsequence — which is what keeps per-channel-seeded models (e.g.
//! `bsim`'s `IndependentChannels`) seed-compatible with the concurrent
//! runtime, where each subscriber samples its own model per delivered slot
//! of its channel, also in slot order.

use crate::engine::{hear, Engine, Heard, Subscriber};
use bdisk::{ChannelErrorModel, TransmissionRef};
use core::convert::Infallible;
use ida::FileId;

/// Why a synchronous drive stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriveError {
    /// A subscriber listened for `listened` slots (its per-subscriber cap)
    /// without resolving.
    Stalled {
        /// The file whose retrieval stalled.
        file: FileId,
        /// How many slots it listened for.
        listened: usize,
    },
    /// A subscriber references a channel this engine never had (it came
    /// from a different station).
    UnknownChannel(FileId),
}

impl core::fmt::Display for DriveError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DriveError::Stalled { file, listened } => {
                write!(
                    f,
                    "retrieval of {file} did not resolve within {listened} slots"
                )
            }
            DriveError::UnknownChannel(file) => {
                write!(
                    f,
                    "retrieval of {file} is tuned to a channel this engine never served"
                )
            }
        }
    }
}

impl std::error::Error for DriveError {}

/// Advances every unresolved subscriber, resolving epoch mismatches
/// (transparent re-subscription or cancellation) as mode swaps come into
/// view.  Stops when all subscribers are resolved, or at `stop_before`
/// (exclusive) if given.  `listen_cap` bounds how many slots any one
/// subscriber may listen (counted from its own request slot) before the
/// drive fails with [`DriveError::Stalled`].
pub fn drive<E: Engine, S: Subscriber>(
    engine: &E,
    subscribers: &mut [S],
    errors: &mut impl ChannelErrorModel,
    stop_before: Option<usize>,
    listen_cap: usize,
) -> Result<(), DriveError> {
    let unresolved = subscribers.iter().filter(|r| !r.is_resolved());
    let Some(mut slot) = unresolved.clone().map(Subscriber::request_slot).min() else {
        return Ok(());
    };
    let mut remaining = unresolved.count();
    let bank = engine.bank();
    let lanes = bank.lane_count();
    // Per-slot, per-channel reception outcome, sampled lazily on the first
    // listening subscriber of that channel so gap slots (and channels nobody
    // hears) never consume an error-model sample.
    let mut channel_ok: Vec<Option<bool>> = vec![None; lanes];
    // The slot's transmissions, fetched once per slot into a reused buffer
    // (no per-slot allocation, no per-subscriber re-fetch when several
    // subscribers share a channel).
    let mut transmissions: Vec<Option<TransmissionRef<'_>>> = Vec::with_capacity(lanes);
    while remaining > 0 && stop_before.is_none_or(|stop| slot < stop) {
        channel_ok.fill(None);
        bank.transmit_all_into(slot, &mut transmissions);
        let mut any_listening = false;
        let mut next_active = usize::MAX;
        for r in subscribers.iter_mut() {
            if r.is_resolved() {
                continue;
            }
            if r.request_slot() > slot {
                next_active = next_active.min(r.request_slot());
                continue;
            }
            if slot - r.request_slot() >= listen_cap {
                return Err(DriveError::Stalled {
                    file: r.file(),
                    listened: slot - r.request_slot(),
                });
            }
            if r.channel() >= lanes {
                return Err(DriveError::UnknownChannel(r.file()));
            }
            let file = r.file();
            let Ok(heard) = hear(
                r,
                |channel| Some((bank.epoch_at(channel, slot)?, transmissions[channel])),
                |channel, epoch| Ok::<_, Infallible>(engine.note_for(file, channel, epoch)),
                |channel, tx| {
                    *channel_ok[channel].get_or_insert_with(|| !errors.is_lost_on(channel, tx))
                },
            );
            if heard != Heard::Listening {
                remaining -= 1;
            }
            // A cancelled subscriber heard nothing; one waiting for its
            // mode to flip in listens all the same.
            any_listening |= heard != Heard::Cancelled;
        }
        slot = if any_listening || next_active == usize::MAX {
            slot + 1
        } else {
            next_active
        };
    }
    Ok(())
}
