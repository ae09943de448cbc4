//! The transport-facing fan-out hook: one publication per served slot.
//!
//! In-process clients each read the [`BroadcastRing`](crate::BroadcastRing)
//! through a cursor of their own.  A network transport is a different
//! shape: the medium itself is the fan-out (the server publishes each slot
//! **once** per channel; however many receivers are tuned in costs the
//! sender nothing per receiver, exactly the paper's broadcast model).  A
//! [`SlotSink`] is that seam: the serving loop hands every attached sink the
//! slot's live lanes right before it publishes the slot onto the ring, on
//! the serving thread, before the next slot is served.
//!
//! Implementations must therefore be fast and non-blocking — a sink that
//! stalls stalls the broadcast.  Dropping data (a full socket buffer, an
//! unreachable peer) is always preferable: on a broadcast medium loss is
//! normal, and dispersal absorbs it.

use bdisk::{EpochBank, TransmissionRef};

/// One live lane of a served slot: the channel, the epoch its program serves
/// under, and the transmitted block.  Idle slots and dark lanes are not
/// published (they carry nothing a receiver acts on).
#[derive(Debug, Clone, Copy)]
pub struct LaneView<'a> {
    /// The broadcast channel.
    pub channel: usize,
    /// The epoch under which the channel serves this slot.
    pub epoch: u64,
    /// The transmission on the air.
    pub transmission: TransmissionRef<'a>,
}

/// A per-slot publication target attached to a running
/// [`Runtime`](crate::Runtime) — the seam a network transport (or a
/// recorder, or a metrics exporter) plugs into.
///
/// Called once per served slot on the serving thread with every live lane,
/// after the in-process subscriber fan-out.  Implementations must not
/// block.
pub trait SlotSink: Send + 'static {
    /// Publishes one served slot.  `lanes` holds the live lanes only, in
    /// channel order; it is empty for slots in which every lane was idle.
    fn publish(&mut self, slot: usize, lanes: &[LaneView<'_>]);

    /// Tells the sink which mode the bank now serves: called once before
    /// the first slot and again after every swap the serving loop lands,
    /// before the next slot is published — so whatever a sink derives from
    /// the bank (a transport's subscription directory, say) can never lag
    /// a swap, however that swap was requested.  Ignored by default.
    fn mode_changed(&mut self, bank: &EpochBank) {
        let _ = bank;
    }
}

impl<S: SlotSink + ?Sized> SlotSink for Box<S> {
    fn publish(&mut self, slot: usize, lanes: &[LaneView<'_>]) {
        (**self).publish(slot, lanes);
    }

    fn mode_changed(&mut self, bank: &EpochBank) {
        (**self).mode_changed(bank);
    }
}
