//! The transport-facing fan-out hook: one publication per served slot.
//!
//! In-process clients each read the [`BroadcastRing`](crate::BroadcastRing)
//! through a cursor of their own.  A network transport is a different
//! shape: the medium itself is the fan-out (the server publishes each slot
//! **once** per channel; however many receivers are tuned in costs the
//! sender nothing per receiver, exactly the paper's broadcast model).  A
//! [`SlotSink`] is that seam: the serving loop hands every attached sink the
//! [`SlotCell`] it is about to publish onto the ring, on the serving thread,
//! before the ring publishes it.  The ring takes a ready run of slots at
//! once, so a sink may see the next slots of the run before any ring
//! reader sees this one.
//!
//! Implementations must therefore be fast and non-blocking — a sink that
//! stalls stalls the broadcast.  Dropping data (a full socket buffer, an
//! unreachable peer) is always preferable: on a broadcast medium loss is
//! normal, and dispersal absorbs it.

use crate::ring::SlotCell;
use bdisk::EpochBank;

/// A per-slot publication target attached to a running
/// [`Runtime`](crate::Runtime) — the seam a network transport (or a
/// recorder, or a metrics exporter) plugs into.
///
/// Called once per served slot on the serving thread, in slot order, with
/// the slot's cell *before* the ring publishes it: a ring reader never
/// sees a slot its sinks have not, and the runtime counts a slot served
/// only once every sink has it.  Implementations must not block.
pub trait SlotSink: Send + 'static {
    /// Publishes one served slot: `cell.lanes` covers every channel, dark
    /// lanes (`epoch` `None`) and idle ones (`block` `None`) included.
    fn publish(&mut self, cell: &SlotCell);

    /// Tells the sink which mode the bank now serves: called once before
    /// the first slot and again after every swap the runtime lands, before
    /// the next slot is published — so whatever a sink derives from the
    /// bank (a transport's subscription directory, say) can never lag a
    /// swap, however that swap was requested.  A swap that was already due
    /// lands on its requester's thread, so this may run there, under the
    /// serving core's lock.  Ignored by default.
    fn mode_changed(&mut self, bank: &EpochBank) {
        let _ = bank;
    }
}

impl<S: SlotSink + ?Sized> SlotSink for Box<S> {
    fn publish(&mut self, cell: &SlotCell) {
        (**self).publish(cell);
    }

    fn mode_changed(&mut self, bank: &EpochBank) {
        (**self).mode_changed(bank);
    }
}
