//! Thread-safety audit: static `Send`/`Sync` assertions for every type the
//! concurrent runtime shares across threads, plus std-thread stress tests
//! hammering the shared-state hot spots:
//!
//! * concurrent `reconstruct` on one shared `Arc<Dispersal>`, which holds
//!   no mutable state: every thread must decode the same bytes;
//! * subscribe/complete churn against a live runtime while the clock runs.

use rtbdisk::{
    brt, Broadcast, EpochBank, FileId, GeneralizedFileSpec, ManualClock, RetrievalResolution,
    Station,
};
use std::sync::Arc;

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
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let pacer = {
        let clock = clock.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                clock.advance(64);
                std::thread::sleep(std::time::Duration::from_micros(500));
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
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    pacer.join().unwrap();
    let stats = handle.stats().unwrap();
    assert_eq!(stats.completed, 48);
    assert_eq!(stats.active_subscribers, 0);
    let handle = Arc::into_inner(handle).expect("all clones joined");
    handle.shutdown().unwrap();
}
