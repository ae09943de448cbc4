//! Equivalence and accounting properties of the broadcast-ring fan-out.
//!
//! The concurrent runtime publishes each slot once into a shared ring and
//! lets every subscriber read it through a cursor of its own; a reader that
//! falls more than the ring's capacity behind observes the overwrite and
//! self-accounts the skipped span as lag.  These tests pin the semantics of
//! that design against the per-subscriber queue model it replaced:
//!
//! * **lag equivalence** — for the same broadcast schedule and the same
//!   stall, the ring books exactly the lag a bounded per-subscriber FIFO
//!   would have booked by dropping slots (the "lag looks like channel loss"
//!   contract survives the fan-out rewrite);
//! * **departed subscribers book nothing** — a client unsubscribed while
//!   the server runs ahead contributes zero lag to the fleet counters (the
//!   old fan-out kept pushing to closed queues and counted every push).

use rtbdisk::{
    Broadcast, Error, ErrorModel, FileId, GeneralizedFileSpec, ManualClock, RetrievalResolution,
    RuntimeConfig, Station, TransmissionRef,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A density-1 single-file station: every slot of its one channel carries a
/// block of the file, so ring cells and queue items line up one-to-one and
/// the lag comparison needs no idle-slot bookkeeping.
fn dense_station() -> Station {
    Broadcast::builder()
        .file(GeneralizedFileSpec::new(FileId(1), 2, vec![2]).unwrap())
        .build()
        .unwrap()
}

/// A lossless model whose first sample blocks until the test opens the
/// gate — pinning the client mid-delivery while the server runs ahead.
struct GatedModel {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl ErrorModel for GatedModel {
    fn is_lost(&mut self, _transmission: TransmissionRef<'_>) -> bool {
        let (lock, cvar) = &*self.gate;
        let mut open = lock.lock().unwrap();
        while !*open {
            open = cvar.wait(open).unwrap();
        }
        false
    }
}

/// The bounded per-subscriber FIFO the ring replaced, as a model: a push
/// that finds the queue full drops the slot and books it as lag.
struct BoundedFifo {
    capacity: usize,
    held: usize,
    lagged: u64,
}

impl BoundedFifo {
    fn push(&mut self) {
        if self.held == self.capacity {
            self.lagged += 1;
        } else {
            self.held += 1;
        }
    }
}

fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cvar) = &**gate;
    *lock.lock().unwrap() = true;
    cvar.notify_all();
}

/// Spins until `predicate` holds (bounded; these conditions settle in
/// microseconds on an idle runtime).
fn wait_for(mut predicate: impl FnMut() -> bool) {
    for _ in 0..50_000 {
        if predicate() {
            return;
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    panic!("condition did not settle within the wait budget");
}

#[test]
fn ring_overwrite_lag_equals_queue_drop_lag_for_the_same_schedule() {
    const CAPACITY: usize = 4;
    const TOTAL: usize = 64;

    let station = dense_station();
    let schedule = station.clone(); // the reference copy the simulation reads
    assert_eq!(station.channel_count(), 1);

    // The ring leg: a client pinned inside its first delivery while the
    // server publishes TOTAL slots into a CAPACITY-cell ring.
    let clock = ManualClock::new();
    let handle = station.serve_concurrent_with(
        clock.clone(),
        RuntimeConfig {
            queue_capacity: CAPACITY,
        },
    );
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let client = handle
        .subscribe_with(FileId(1), 0, GatedModel { gate: gate.clone() })
        .unwrap();
    clock.advance(1);
    // The client consumed slot 0 and is now blocked inside deliver.
    wait_for(|| client.stats().delivered == 1);
    clock.advance(TOTAL - 1);
    wait_for(|| handle.stats().unwrap().slots_served == TOTAL as u64);
    open_gate(&gate);
    // Resuming at cursor 1 against ring base TOTAL-CAPACITY, the client
    // observes the overwrite, books the skipped span, and completes off
    // the retained cells (plus further slots if it needs them).
    wait_for(|| client.is_finished());
    let fleet = handle.stats().unwrap();
    let stats = client.stats();

    // The queue leg: the identical schedule pushed through the FIFO model
    // at the same capacity with the identical stall — slot 0 is pushed and
    // popped, then every remaining slot arrives while the client holds.
    // Every slot of the density-1 schedule carries the file, so each drop
    // is also an erasure.
    let mut sim = BoundedFifo {
        capacity: CAPACITY,
        held: 0,
        lagged: 0,
    };
    for slot in 1..TOTAL {
        let tx = schedule.bank().transmit_ref(0, slot);
        assert_eq!(tx.map(|tx| tx.block.file()), Some(FileId(1)));
        sim.push();
    }
    let queue_lagged = sim.lagged;
    let queue_erasures = sim.lagged;

    assert!(queue_lagged > 0, "the simulated queue must have dropped");
    assert_eq!(
        stats.lagged_slots, queue_lagged,
        "ring-overwrite lag must equal queue-drop lag for the same schedule"
    );
    assert_eq!(
        stats.lag_erasures, queue_erasures,
        "and the erasure accounting must agree block-for-block"
    );
    assert_eq!(fleet.lagged_slots, stats.lagged_slots);
    assert_eq!(fleet.lag_erasures, stats.lag_erasures);

    match client.join().unwrap() {
        RetrievalResolution::Complete(outcome) => {
            assert!(!outcome.data.is_empty());
            assert!(
                outcome.errors_observed > 0,
                "the skipped span must surface as observed erasures"
            );
        }
        other => panic!("the lagging retrieval should still complete, got {other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn departed_subscribers_book_no_lag_however_far_the_server_runs_ahead() {
    let station = dense_station();
    let clock = ManualClock::new();
    let handle = station.serve_concurrent_with(clock.clone(), RuntimeConfig { queue_capacity: 4 });
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let client = handle
        .subscribe_with(FileId(1), 0, GatedModel { gate: gate.clone() })
        .unwrap();
    clock.advance(1);
    wait_for(|| client.stats().delivered == 1);

    // Unsubscribe while the client is pinned, then let the server run far
    // past it.  The stats round-trip orders after the unsubscribe, so the
    // departure is fully processed before the clock moves.
    handle.unsubscribe(&client);
    handle.stats().unwrap();
    clock.advance(256);
    wait_for(|| handle.stats().unwrap().slots_served == 257);

    open_gate(&gate);
    wait_for(|| client.is_finished());
    let fleet = handle.stats().unwrap();
    assert_eq!(
        fleet.lagged_slots, 0,
        "a departed subscriber misses nothing: no lag however far ahead the server ran"
    );
    assert_eq!(fleet.lag_erasures, 0);
    assert_eq!(client.stats().lagged_slots, 0);
    match client.join() {
        Err(Error::RetrievalIncomplete { file, .. }) => assert_eq!(file, FileId(1)),
        other => panic!("an unsubscribed mid-flight client resolves incomplete, got {other:?}"),
    }
    handle.shutdown().unwrap();
}
