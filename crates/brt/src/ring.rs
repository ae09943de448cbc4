//! The broadcast ring: publish-once slot cells shared by every subscriber.
//!
//! The paper's medium is a true broadcast — the server transmits each slot
//! once and every receiver tuned in hears it for free.  The ring reproduces
//! that shape in-process: the serving loop publishes one [`SlotCell`] per
//! slot (an `Arc`-shared snapshot of every lane's epoch and transmission)
//! onto a fixed-capacity ring, a ready run of them under one lock, wakes
//! parked readers once per run, and never touches per-subscriber state
//! again.  Each subscriber holds a private cursor and reads cells without
//! cloning payloads (the block bytes are reference-counted).
//!
//! Two wakeup economies keep the writer fast on a loaded machine: parked
//! readers wait in *per-slot groups* (a `BTreeMap` keyed by the slot each
//! cursor needs), so a publish wakes exactly the readers its slot
//! satisfies — never a fleet-wide broadcast — and slots nobody waits for
//! publish without any futex round-trip; and [`BroadcastRing::skip_run`]
//! lets the serving loop advance past whole runs of slots that nothing can
//! observe without even snapshotting them.
//!
//! Lag is the reader's problem, as on a real broadcast: a reader that falls
//! more than the ring's capacity behind finds its cursor *below* the ring's
//! base — the cells it wanted were overwritten — and self-accounts the
//! skipped span as lag/erasures (the same semantics as the bounded-queue
//! drops this ring replaced, with the server off the data path entirely).

use bdisk::TransmissionRef;
use ida::DispersedBlock;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One lane of a published slot: the epoch the channel serves under (`None`
/// while dark) and its transmission (`None` for idle slots).
#[derive(Debug, Clone)]
pub struct LaneCell {
    /// The epoch under which the lane serves this slot, `None` for a dark
    /// lane.  Carried for *every* lane — readers resolve their own epoch
    /// transitions (retune / cancel / wait-for-flip) against it.
    pub epoch: Option<u64>,
    /// The block on the air, `None` for an idle slot.  The payload is
    /// shared: reading never copies block bytes.
    pub block: Option<DispersedBlock>,
}

/// One published slot: every lane's epoch and transmission, snapshotted by
/// the serving thread before the engine can be mutated by the next swap.
#[derive(Debug, Clone)]
pub struct SlotCell {
    /// The slot this cell was transmitted in.
    pub slot: usize,
    /// Per-channel lane states, indexed by channel, covering all lanes.
    pub lanes: Vec<LaneCell>,
}

impl SlotCell {
    /// What `channel` carries in this cell: the epoch it serves under and
    /// its transmission, `None` while the lane is dark (or unknown).
    pub(crate) fn lane(&self, channel: usize) -> Option<(u64, Option<TransmissionRef<'_>>)> {
        let lane = self.lanes.get(channel)?;
        let tx = lane.block.as_ref().map(|block| TransmissionRef {
            slot: self.slot,
            block,
        });
        Some((lane.epoch?, tx))
    }
}

/// What [`BroadcastRing::read`] found at a reader's cursor.  A batched
/// read finds the same outcomes, with its cells in the caller's buffer.
#[derive(Debug)]
pub enum RingRead<C = Arc<SlotCell>> {
    /// The cell at the cursor (advance the cursor by one after processing);
    /// for a batched read, one or more consecutive cells from the cursor.
    Cell(C),
    /// The cursor fell behind the ring's base: slots `[cursor, resume)` were
    /// overwritten.  The reader self-accounts them as lag and resumes at
    /// `resume` (the oldest retained cell).
    Overwritten {
        /// The oldest slot still on the ring — where reading can resume.
        resume: usize,
    },
    /// The ring is closed and no cell at or past the cursor will ever be
    /// published (runtime shutdown).
    Closed,
    /// The reader's detach flag was raised (unsubscribe or cancellation);
    /// no further cells are wanted.
    Detached,
}

/// What [`BroadcastRing::read_many`] found: its cells went to the caller's
/// buffer (advance the cursor by one per cell processed).
pub(crate) type BatchRead = RingRead<()>;

#[derive(Debug, Default)]
struct RingState {
    /// The slot of `cells[0]` (== number of cells ever evicted).
    base: usize,
    /// Retained cells, consecutive slots from `base`.
    cells: VecDeque<Arc<SlotCell>>,
    closed: bool,
    /// Parked readers, grouped by the slot each one is waiting for.  A
    /// publish wakes exactly the groups its slot satisfies — readers
    /// parked for later slots are never touched, so a 10 000-reader fleet
    /// staggered across a window costs the writer one group wake per
    /// slot, not a fleet-wide broadcast.
    waiting: BTreeMap<usize, Arc<Condvar>>,
}

impl RingState {
    /// Removes every wait group the new tail satisfies (parked slot
    /// `<= slot`) and returns their condvars for notification *after* the
    /// state lock is released — woken readers must not pile straight into
    /// a held mutex.
    fn satisfied_groups(&mut self, slot: usize) -> Vec<Arc<Condvar>> {
        let mut wake = Vec::new();
        while let Some((&parked, _)) = self.waiting.first_key_value() {
            if parked > slot {
                break;
            }
            let (_, group) = self.waiting.pop_first().expect("a first key exists");
            wake.push(group);
        }
        wake
    }

    /// Removes and returns every wait group (shutdown / detach paths).
    fn all_groups(&mut self) -> Vec<Arc<Condvar>> {
        std::mem::take(&mut self.waiting).into_values().collect()
    }
}

/// The wait groups a publish satisfied, detached from the ring lock and
/// not yet notified.  [`BroadcastRing::publish_run`] returns one so the
/// serving loop can time the ring update and the cohort wakeup as
/// separate phases, and so woken readers never pile straight into a held
/// mutex; dropping a `WakeSet` without calling
/// [`WakeSet::wake`] would strand parked readers, so don't.
#[must_use = "call wake() or the satisfied cohort stays parked"]
#[derive(Debug, Default)]
pub(crate) struct WakeSet(Vec<Arc<Condvar>>);

impl WakeSet {
    /// Notifies every satisfied wait group.
    pub(crate) fn wake(self) {
        for group in self.0 {
            group.notify_all();
        }
    }
}

/// A fixed-capacity multi-reader broadcast ring of [`SlotCell`]s.
///
/// Single writer (the serving thread), any number of readers.  Publishing
/// evicts the oldest cell once `capacity` is reached and wakes exactly the
/// wait groups the new slot satisfies — the server's per-slot cost is
/// independent of the fleet size.
#[derive(Debug)]
pub struct BroadcastRing {
    state: Mutex<RingState>,
    capacity: usize,
}

impl BroadcastRing {
    /// A ring retaining at most `capacity` cells (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        BroadcastRing {
            state: Mutex::new(RingState::default()),
            capacity: capacity.max(1),
        }
    }

    /// Publishes the next slot's cell (slots must be published in order,
    /// starting at 0), evicting the oldest cell when full: a run of one.
    pub fn publish(&self, cell: SlotCell) {
        self.publish_run([Arc::new(cell)]).wake();
    }

    /// Publishes a run of consecutive cells (continuing the ring's tail
    /// order) under one lock acquisition, evicting the oldest cells once
    /// `capacity` is reached, and returns the wait groups the run satisfied
    /// as one [`WakeSet`] — the caller performs (and may time) the wakeup as
    /// its own phase.  Readers parked for later slots stay parked (no futex
    /// round-trip for them).
    pub(crate) fn publish_run(&self, cells: impl IntoIterator<Item = Arc<SlotCell>>) -> WakeSet {
        let mut state = self.state.lock().expect("broadcast ring lock");
        if state.closed {
            return WakeSet::default();
        }
        let mut last = None;
        for cell in cells {
            debug_assert_eq!(cell.slot, state.base + state.cells.len());
            last = Some(cell.slot);
            state.cells.push_back(cell);
            if state.cells.len() > self.capacity {
                state.cells.pop_front();
                state.base += 1;
            }
        }
        last.map_or_else(WakeSet::default, |slot| {
            WakeSet(state.satisfied_groups(slot))
        })
    }

    /// Advances the ring past the `count` slots starting at `from` without
    /// retaining readable cells — the serving loop's fast path for slots
    /// transmitted while nothing can observe them (no live subscriber, no
    /// sink).  Nobody reads such slots later either: a subscriber's cursor
    /// starts no earlier than the slot being served when it seats.  The
    /// whole run costs one lock acquisition.  Retained history is dropped
    /// (with no live readers it is unreachable), and any straggling cursor
    /// observes the span as overwritten, exactly as if cells had been
    /// published and evicted.
    pub(crate) fn skip_run(&self, from: usize, count: usize) {
        if count == 0 {
            return;
        }
        let mut state = self.state.lock().expect("broadcast ring lock");
        debug_assert_eq!(from, state.base + state.cells.len());
        if state.closed {
            return;
        }
        state.cells.clear();
        state.base = from + count;
        // Defensively honour wait groups the skipped span passes: no reader
        // should be parked on a slot the server decided was unobservable,
        // but leaving one stranded would turn a bookkeeping bug into a
        // deadlock (it wakes to find the span overwritten).
        let wake = WakeSet(state.satisfied_groups(from + count - 1));
        drop(state);
        wake.wake();
    }

    /// Blocks until the cell at `cursor` is available (or the cursor is
    /// found overwritten, the ring closes, or `detached` is raised).
    ///
    /// `detached` is the reader's private detach flag; the runtime raises it
    /// from another thread (and kicks the ring) to pull a blocked reader out
    /// of the wait.
    pub fn read(&self, cursor: usize, detached: &AtomicBool) -> RingRead {
        let mut out = Vec::with_capacity(1);
        match self.read_many(cursor, 1, detached, &mut out) {
            RingRead::Cell(()) => RingRead::Cell(out.pop().expect("one cell was batched")),
            RingRead::Overwritten { resume } => RingRead::Overwritten { resume },
            RingRead::Closed => RingRead::Closed,
            RingRead::Detached => RingRead::Detached,
        }
    }

    /// Like [`BroadcastRing::read`], but drains every retained cell from
    /// `cursor` to the tail (up to `max`) into `out` under a single lock
    /// acquisition — a reader catching up to a free-running server pays one
    /// lock per batch instead of one per slot.  `out` is cleared first.
    pub(crate) fn read_many(
        &self,
        cursor: usize,
        max: usize,
        detached: &AtomicBool,
        out: &mut Vec<Arc<SlotCell>>,
    ) -> BatchRead {
        out.clear();
        let mut state = self.state.lock().expect("broadcast ring lock");
        loop {
            if detached.load(Ordering::SeqCst) {
                return BatchRead::Detached;
            }
            if cursor < state.base {
                return BatchRead::Overwritten { resume: state.base };
            }
            let offset = cursor - state.base;
            if offset < state.cells.len() {
                out.extend(state.cells.iter().skip(offset).take(max.max(1)).cloned());
                return BatchRead::Cell(());
            }
            if state.closed {
                return BatchRead::Closed;
            }
            // Park in the wait group for this cursor's slot; the writer
            // wakes the group when the slot is published (or skipped), and
            // kick/close wake every group.
            let group = state
                .waiting
                .entry(cursor)
                .or_insert_with(|| Arc::new(Condvar::new()))
                .clone();
            state = group.wait(state).expect("broadcast ring lock");
        }
    }

    /// Wakes every waiting reader without publishing — pair with raising a
    /// reader's detach flag so it observes [`RingRead::Detached`] promptly.
    pub(crate) fn kick(&self) {
        let mut state = self.state.lock().expect("broadcast ring lock");
        let wake = WakeSet(state.all_groups());
        drop(state);
        wake.wake();
    }

    /// Closes the ring: readers drain the retained cells, then observe
    /// [`RingRead::Closed`] instead of blocking.
    pub(crate) fn close(&self) {
        let mut state = self.state.lock().expect("broadcast ring lock");
        state.closed = true;
        let wake = WakeSet(state.all_groups());
        drop(state);
        wake.wake();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bytes::Bytes;
    use ida::{BlockHeader, FileId};

    /// Parks a wait group for `slot` as a blocked reader would, without a
    /// thread.
    pub(crate) fn park(ring: &BroadcastRing, slot: usize) {
        let mut state = ring.state.lock().unwrap();
        state.waiting.entry(slot).or_default();
    }

    /// How many wait groups are parked (a kick or a close empties them).
    pub(crate) fn parked(ring: &BroadcastRing) -> usize {
        ring.state.lock().unwrap().waiting.len()
    }

    /// The next slot to be published: how many were published or skipped.
    fn tail(ring: &BroadcastRing) -> usize {
        let state = ring.state.lock().unwrap();
        state.base + state.cells.len()
    }

    fn cell(slot: usize) -> SlotCell {
        let block = DispersedBlock::new(
            BlockHeader {
                file: FileId(1),
                index: (slot % 4) as u32,
                m: 1,
                n: 2,
                original_len: 4,
            },
            Bytes::from(vec![slot as u8; 4]),
        );
        SlotCell {
            slot,
            lanes: vec![LaneCell {
                epoch: Some(0),
                block: Some(block),
            }],
        }
    }

    #[test]
    fn cells_are_read_in_publish_order_without_copying() {
        let ring = BroadcastRing::new(8);
        let live = AtomicBool::new(false);
        for slot in 0..4 {
            ring.publish(cell(slot));
        }
        for slot in 0..4 {
            match ring.read(slot, &live) {
                RingRead::Cell(c) => assert_eq!(c.slot, slot),
                other => panic!("expected a cell, got {other:?}"),
            }
        }
    }

    #[test]
    fn capacity_one_ring_retains_exactly_the_newest_cell() {
        // The boundary: a capacity-1 ring (the clamp floor) always exposes
        // the single newest cell, and every older cursor reads Overwritten.
        let ring = BroadcastRing::new(1);
        let live = AtomicBool::new(false);
        for slot in 0..5 {
            ring.publish(cell(slot));
        }
        match ring.read(4, &live) {
            RingRead::Cell(c) => assert_eq!(c.slot, 4),
            other => panic!("expected the newest cell, got {other:?}"),
        }
        match ring.read(0, &live) {
            RingRead::Overwritten { resume } => assert_eq!(resume, 4),
            other => panic!("expected an overwrite, got {other:?}"),
        }
    }

    #[test]
    fn a_reader_more_than_capacity_behind_observes_the_overwrite() {
        let ring = BroadcastRing::new(3);
        let live = AtomicBool::new(false);
        for slot in 0..10 {
            ring.publish(cell(slot));
        }
        // Slots [0, 7) were evicted; 7, 8, 9 are retained.
        match ring.read(2, &live) {
            RingRead::Overwritten { resume } => assert_eq!(resume, 7),
            other => panic!("expected an overwrite, got {other:?}"),
        }
        // Exactly at the boundary there is no overwrite.
        match ring.read(7, &live) {
            RingRead::Cell(c) => assert_eq!(c.slot, 7),
            other => panic!("expected the boundary cell, got {other:?}"),
        }
    }

    #[test]
    fn batched_reads_drain_the_available_run_under_one_lock() {
        let ring = BroadcastRing::new(8);
        let live = AtomicBool::new(false);
        for slot in 0..6 {
            ring.publish(cell(slot));
        }
        let mut out = Vec::new();
        // A reader two behind grabs the whole remaining run at once …
        assert!(matches!(
            ring.read_many(2, 64, &live, &mut out),
            BatchRead::Cell(())
        ));
        assert_eq!(out.iter().map(|c| c.slot).collect::<Vec<_>>(), [2, 3, 4, 5]);
        // … bounded by `max` …
        assert!(matches!(
            ring.read_many(2, 3, &live, &mut out),
            BatchRead::Cell(())
        ));
        assert_eq!(out.len(), 3);
        // … and an overwritten cursor still reports the resume point.
        for slot in 6..20 {
            ring.publish(cell(slot));
        }
        match ring.read_many(2, 64, &live, &mut out) {
            BatchRead::Overwritten { resume } => assert_eq!(resume, 12),
            other => panic!("expected an overwrite, got {other:?}"),
        }
        assert!(out.is_empty());
    }

    #[test]
    fn skipped_spans_read_as_overwritten_and_publishing_resumes_after() {
        let ring = BroadcastRing::new(8);
        let live = AtomicBool::new(false);
        ring.publish(cell(0));
        ring.publish(cell(1));
        ring.skip_run(2, 3);
        // The skip drops unreachable history and moves the tail past it …
        match ring.read(0, &live) {
            RingRead::Overwritten { resume } => assert_eq!(resume, 5),
            other => panic!("expected the skipped span to read overwritten, got {other:?}"),
        }
        assert_eq!(tail(&ring), 5);
        // … and ordinary publishing picks up at the next slot.
        ring.publish(cell(5));
        match ring.read(5, &live) {
            RingRead::Cell(c) => assert_eq!(c.slot, 5),
            other => panic!("expected the post-skip cell, got {other:?}"),
        }
    }

    #[test]
    fn a_reader_parked_for_a_future_slot_wakes_when_it_is_published() {
        // The wake floor must not strand a waiter: slots 0 and 1 satisfy
        // nobody (the reader waits at 2) and publish without a broadcast;
        // slot 2 crosses the floor and must wake the reader.
        let ring = Arc::new(BroadcastRing::new(8));
        let reader = std::thread::spawn({
            let ring = ring.clone();
            move || {
                let live = AtomicBool::new(false);
                match ring.read(2, &live) {
                    RingRead::Cell(c) => c.slot,
                    other => panic!("expected the awaited cell, got {other:?}"),
                }
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        for slot in 0..3 {
            ring.publish(cell(slot));
        }
        assert_eq!(reader.join().unwrap(), 2);
    }

    #[test]
    fn close_unblocks_and_reports_closed_past_the_tail() {
        let ring = Arc::new(BroadcastRing::new(4));
        let reader = std::thread::spawn({
            let ring = ring.clone();
            move || {
                let live = AtomicBool::new(false);
                matches!(ring.read(0, &live), RingRead::Closed)
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        ring.close();
        assert!(reader.join().unwrap());
    }

    #[test]
    fn kick_wakes_a_detached_reader() {
        let ring = Arc::new(BroadcastRing::new(4));
        let detached = Arc::new(AtomicBool::new(false));
        let reader = std::thread::spawn({
            let ring = ring.clone();
            let detached = detached.clone();
            move || matches!(ring.read(0, &detached), RingRead::Detached)
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        detached.store(true, Ordering::SeqCst);
        ring.kick();
        assert!(reader.join().unwrap());
    }

    #[test]
    fn retained_cells_drain_after_close() {
        let ring = BroadcastRing::new(4);
        let live = AtomicBool::new(false);
        ring.publish(cell(0));
        ring.close();
        assert!(matches!(ring.read(0, &live), RingRead::Cell(_)));
        assert!(matches!(ring.read(1, &live), RingRead::Closed));
    }
}
