//! Thread-safety audit: static `Send`/`Sync` assertions for every type the
//! concurrent runtime shares across threads, plus std-thread stress tests
//! hammering the shared-state hot spots:
//!
//! * concurrent `reconstruct` on one shared `Arc<Dispersal>`, which holds
//!   no mutable state: every thread must decode the same bytes;
//! * subscribe/complete churn against a live runtime while the clock runs;
//! * every kind of call on the runtime's serving core at once against a
//!   wall-clocked server with a sink, under a deadline, so a lock-order
//!   deadlock fails instead of hanging.

use rtbdisk::brt::{Runtime, RuntimeConfig, SlotCell, SlotSink, Telemetry, WallClock};
use rtbdisk::{
    brt, Broadcast, EpochBank, FileId, GeneralizedFileSpec, ManualClock, ModeSpec, NoErrors,
    RetrievalResolution, Station, SwapPolicy,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}

#[test]
fn shared_types_are_send_and_sync() {
    // The coding layer: one `Arc<Dispersal>` is shared by the station, all
    // of its servers, and every client handle.
    assert_send_sync::<rtbdisk::ida::Dispersal>();
    assert_send_sync::<Arc<rtbdisk::ida::Dispersal>>();
    // The serving layer: banks move onto the serving thread and snapshots
    // come back.
    assert_send_sync::<EpochBank>();
    assert_send_sync::<Station>();
    // The runtime surface: handles are held by the spawning thread and may
    // be shared (the controller is cloned into scheduler threads).
    assert_send_sync::<rtbdisk::RuntimeHandle>();
    assert_send_sync::<brt::ManualClock>();
    assert_send_sync::<brt::WallClock>();
    assert_send_sync::<brt::RuntimeStats>();
    assert_send::<rtbdisk::ClientHandle>();
    assert_send::<rtbdisk::ScheduleHandle>();
    assert_send::<rtbdisk::Retrieval>();
}

#[test]
fn concurrent_reconstructs_through_one_shared_dispersal_agree() {
    let (m, n) = (8, 16);
    let dispersal = Arc::new(rtbdisk::ida::Dispersal::new(m, n).unwrap());
    let payload: Vec<u8> = (0..16 * 1024u32).map(|i| (i * 37 + 11) as u8).collect();
    let dispersed = Arc::new(dispersal.disperse(FileId(1), &payload).unwrap());
    let expected = Arc::new(payload);

    let threads: Vec<_> = (0..8)
        .map(|t| {
            let dispersal = dispersal.clone();
            let dispersed = dispersed.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                // Every thread walks the same deterministic loss patterns in
                // the same order, so all of them solve the same systems
                // through the one shared configuration at the same time.
                for round in 0..24usize {
                    let drop_a = (t + round) % n;
                    let drop_b = (t + 2 * round + 1) % n;
                    let blocks: Vec<_> = dispersed
                        .blocks()
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != drop_a && *i != drop_b)
                        .map(|(_, b)| b.clone())
                        .take(m)
                        .collect();
                    let recovered = dispersal.reconstruct(&blocks).unwrap();
                    assert_eq!(recovered, *expected, "thread {t} round {round}");
                }
            })
        })
        .collect();
    for thread in threads {
        thread.join().unwrap();
    }
}

#[test]
fn subscribe_churn_against_a_live_runtime() {
    let station =
        Broadcast::builder()
            .files((1..=4).map(|i| {
                GeneralizedFileSpec::new(FileId(i), 1, vec![8 + 2 * i, 12 + 2 * i]).unwrap()
            }))
            .channels(2)
            .build()
            .unwrap();
    let clock = ManualClock::new();
    let handle = Arc::new(station.serve_concurrent(clock.clone()));

    // A pacer thread keeps releasing slots while churn threads subscribe,
    // join, and occasionally read stats.
    let stop = Arc::new(AtomicBool::new(false));
    let pacer = {
        let clock = clock.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(64);
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    };
    let churners: Vec<_> = (0..4)
        .map(|t| {
            let handle = handle.clone();
            std::thread::spawn(move || {
                for round in 0..12u32 {
                    let file = FileId(1 + (t + round) % 4);
                    let at_slot = handle.stats().unwrap().slots_served as usize;
                    let client = handle.subscribe(file, at_slot).unwrap();
                    match client.join().unwrap() {
                        RetrievalResolution::Complete(outcome) => {
                            assert_eq!(outcome.file, file);
                            assert!(!outcome.data.is_empty());
                        }
                        other => panic!("churn retrieval resolved as {other:?}"),
                    }
                }
            })
        })
        .collect();
    for churner in churners {
        churner.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    pacer.join().unwrap();
    let stats = handle.stats().unwrap();
    assert_eq!(stats.completed, 48);
    assert_eq!(stats.active_subscribers, 0);
    let handle = Arc::into_inner(handle).expect("all clones joined");
    handle.shutdown().unwrap();
}

fn four_files_on_two_channels() -> Station {
    Broadcast::builder()
        .files(
            (1..=4).map(|i| {
                GeneralizedFileSpec::new(FileId(i), 1, vec![8 + 2 * i, 12 + 2 * i]).unwrap()
            }),
        )
        .channels(2)
        .build()
        .unwrap()
}

/// Counts the slots the serving core hands it.
struct CountingSink(Arc<AtomicU64>);

impl SlotSink for CountingSink {
    fn publish(&mut self, _cell: &SlotCell) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn every_call_on_the_serving_core_at_once_never_deadlocks() {
    let station = four_files_on_two_channels();
    let specs = station.specs().to_vec();
    let refreshed = FileId(1);
    let refresh_len = station.files().get(refreshed).unwrap().total_bytes();
    let sunk = Arc::new(AtomicU64::new(0));
    let runtime = Arc::new(Runtime::spawn_with_telemetry(
        station,
        WallClock::new(Duration::from_micros(50)),
        RuntimeConfig::default(),
        vec![Box::new(CountingSink(sunk.clone()))],
        Telemetry::new(),
    ));
    const SWAPS: u32 = 1000;
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = Vec::new();
    // Subscribe and unsubscribe: a departure kicks the ring under the core.
    for t in 0..2u32 {
        let runtime = runtime.clone();
        workers.push(std::thread::spawn(move || {
            for round in 0..200 {
                let file = FileId(1 + (t + round) % 4);
                let sub = runtime.subscribe_with(file, 0, NoErrors).unwrap();
                runtime.unsubscribe(&sub);
                sub.join();
            }
        }));
    }
    // Readers that resolve: each takes the core for its completion, its
    // swap notes and any lag, from its own thread.
    for t in 0..2u32 {
        let runtime = runtime.clone();
        workers.push(std::thread::spawn(move || {
            for round in 0..25 {
                let file = FileId(1 + (t + round) % 4);
                let at_slot = runtime.stats().unwrap().slots_served as usize;
                let ticket = runtime
                    .subscribe_with(file, at_slot, NoErrors)
                    .unwrap()
                    .join();
                assert!(ticket.is_resolved(), "{file} read from slot {at_slot}");
            }
        }));
    }
    // Past-due swaps in a loop: each lands on this thread, announcing the
    // mode to the sink and publishing the engine under the core.
    workers.push({
        let runtime = runtime.clone();
        std::thread::spawn(move || {
            for round in 0..SWAPS {
                let mode = ModeSpec::new(format!("refresh-{round}")).files(specs.iter().cloned());
                let bytes = vec![round as u8; refresh_len];
                let prepared = runtime
                    .snapshot()
                    .unwrap()
                    .prepare_mode_with_contents(&mode, BTreeMap::from([(refreshed, bytes)]))
                    .unwrap();
                runtime.swap_at(prepared, 0, SwapPolicy::Immediate).unwrap();
            }
        })
    });
    let poller = {
        let (runtime, stop) = (runtime.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                runtime.stats().unwrap();
                runtime.snapshot().unwrap();
                std::thread::yield_now();
            }
        })
    };
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        let panicked = workers.into_iter().any(|w| w.join().is_err());
        done.send(panicked).unwrap();
    });
    let panicked = finished
        .recv_timeout(Duration::from_secs(120))
        .expect("the workers deadlocked on the serving core");
    stop.store(true, Ordering::Relaxed);
    poller.join().unwrap();
    assert!(!panicked, "a worker failed");
    let stats = runtime.stats().unwrap();
    assert_eq!(stats.swaps_applied, u64::from(SWAPS));
    assert_eq!(stats.active_subscribers, 0);
    assert!(sunk.load(Ordering::Relaxed) > 0);
    let runtime = Arc::into_inner(runtime).expect("all clones joined");
    runtime.shutdown().unwrap();
}
