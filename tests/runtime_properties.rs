//! Property tests for the concurrent broadcast runtime (`brt` + the
//! facade's `serve_concurrent` surface).
//!
//! Seeded-RNG properties locking in the runtime guarantees:
//!
//! * **byte identity** — a fleet driven through the threaded runtime under
//!   a `ManualClock` resolves *identically* (bytes, completion slots,
//!   latencies) to the same fleet driven through the synchronous
//!   `Station::run_until_complete` path;
//! * **sink plus readers** — in-process subscribers behind an attached
//!   network sink, released in multi-slot bursts, resolve as the
//!   synchronous drive does, and the served count at rest is the slots
//!   released;
//! * **seed compatibility** — a concurrent subscriber sampling its own
//!   per-channel-seeded loss model observes exactly what a single-retrieval
//!   synchronous drive with the same model observes;
//! * **sampling order** — the synchronous driver samples its error model
//!   lazily, at most once per `(slot, channel)`, slots ascending, with
//!   every per-channel sample stream in strict slot order (the contract
//!   that makes the previous property possible);
//! * **swap atomicity** — a scheduled swap under concurrent subscribers
//!   flips at one slot boundary: victims cancel with `ModeChanged`,
//!   witnesses on untouched channels complete byte-identically, and no slot
//!   ever blends epochs;
//! * **lag bookkeeping** — a slow subscriber drops slots instead of
//!   stalling the server, and every dropped slot that carried a block of
//!   its file is accounted as an erasure;
//! * **retention** — a served station frees every swapped-out program no
//!   reader can reach, while a parked reader's lag replay and a far-future
//!   subscriber's swap notes stay exactly as they were;
//! * **published snapshots** — a `snapshot()` taken once `swap_at` has
//!   returned is the station after that swap and the retirement behind it,
//!   read without a round trip to the serving thread, and a preparation
//!   from before the swap is refused as stale;
//! * **wall-clock smoke** — a real-time (`WallClock`) runtime completes a
//!   multi-client retrieval with a scheduled swap firing at its planned
//!   slot.
//!
//! Case counts are tunable without code edits via the `RTBDISK_PROP_CASES`
//! environment variable (default 64; CI runs 256).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtbdisk::{
    BernoulliErrors, Broadcast, ChannelErrorModel, Error, ErrorModel, FileId, GeneralizedFileSpec,
    ManualClock, ModeSchedule, ModeSpec, NetConfig, NoErrors, RetrievalResolution, RuntimeConfig,
    RuntimeHandle, Station, SwapPolicy, TransmissionRef, WallClock,
};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Property-test depth: `RTBDISK_PROP_CASES` (default 64).
fn prop_cases() -> usize {
    std::env::var("RTBDISK_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
        .max(1)
}

/// A random specification set whose total density stays below `cap`.
fn random_specs(rng: &mut StdRng, n_files: usize, cap: f64) -> Vec<GeneralizedFileSpec> {
    loop {
        let mut density = 0.0f64;
        let mut specs = Vec::new();
        for i in 0..n_files {
            let m = rng.gen_range(1u32..=3);
            let r = rng.gen_range(0usize..=2);
            let d0 = (m + r as u32) * rng.gen_range(3u32..=6) + rng.gen_range(0u32..=4);
            let mut latencies = vec![d0];
            for _ in 0..r {
                let prev = *latencies.last().unwrap();
                latencies.push(prev + rng.gen_range(1u32..=4));
            }
            density += f64::from(m) / f64::from(d0);
            specs.push(GeneralizedFileSpec::new(FileId(i as u32 + 1), m, latencies).unwrap());
        }
        if density <= cap {
            return specs;
        }
    }
}

/// Builds a station over random specs, retrying generation until the shard
/// planner accepts the set on `k` channels.
fn random_station(rng: &mut StdRng, k: usize) -> Station {
    let cap = match k {
        1 => 0.85,
        2 => 1.5,
        _ => 2.5,
    };
    loop {
        let n_files = rng.gen_range(k.max(2)..=k.max(2) + 2);
        let specs = random_specs(rng, n_files, cap);
        if let Ok(station) = Broadcast::builder().files(specs).channels(k).build() {
            return station;
        }
    }
}

/// Advances the manual clock in bounded chunks until every client resolves
/// (or panics after a generous cap — nothing here should take this long).
///
/// A chunk is a quarter of the default ring, and the next one is released
/// only once the readers had `CATCH_UP` of wall time to resolve on what is
/// already out — microseconds when they are running, while a reader thread
/// the scheduler set aside on a busy box has four times `CATCH_UP` before
/// its own test harness laps it and hands it ring-lag erasures it never
/// earned.
fn advance_until_finished(clock: &ManualClock, clients: &[rtbdisk::ClientHandle]) {
    const CHUNK: usize = 256;
    const CATCH_UP: Duration = Duration::from_millis(50);
    let finished = || clients.iter().all(|c| c.is_finished());
    for _ in 0..4096 {
        if finished() {
            return;
        }
        clock.advance(CHUNK);
        let released = Instant::now();
        while !finished() && released.elapsed() < CATCH_UP {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    panic!("clients did not resolve within the advance budget");
}

#[test]
fn concurrent_drives_are_byte_identical_to_the_synchronous_station() {
    let mut rng = StdRng::seed_from_u64(0xB2_07);
    let cases = prop_cases().div_ceil(4).max(4);
    for case in 0..cases {
        let k = [1, 2, 4][case % 3];
        let station = random_station(&mut rng, k);

        // The synchronous reference: two staggered retrievals per file.
        let serial = station.clone();
        let mut fleet: Vec<_> = serial
            .specs()
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                [
                    serial.subscribe(s.id, 3 * i).unwrap(),
                    serial.subscribe(s.id, 3 * i + 17).unwrap(),
                ]
            })
            .collect();
        let expected = serial
            .run_until_complete(&mut fleet, &mut NoErrors)
            .unwrap();

        // The same fleet through the threaded runtime.
        let clock = ManualClock::new();
        let handle = station.serve_concurrent_with(
            clock.clone(),
            RuntimeConfig {
                queue_capacity: 1 << 20, // no lag: this is the identity leg
            },
        );
        let clients: Vec<_> = serial
            .specs()
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                [
                    handle.subscribe(s.id, 3 * i).unwrap(),
                    handle.subscribe(s.id, 3 * i + 17).unwrap(),
                ]
            })
            .collect();
        advance_until_finished(&clock, &clients);
        let stats = handle.stats().unwrap();
        assert_eq!(stats.lagged_slots, 0, "identity leg must not lag");
        for (client, expected) in clients.into_iter().zip(&expected) {
            match client.join().unwrap() {
                RetrievalResolution::Complete(outcome) => {
                    assert_eq!(outcome.file, expected.file, "case {case}");
                    assert_eq!(outcome.data, expected.data, "case {case}");
                    assert_eq!(
                        outcome.completion_slot, expected.completion_slot,
                        "case {case} file {}",
                        expected.file
                    );
                    assert_eq!(outcome.request_slot, expected.request_slot);
                    assert_eq!(outcome.errors_observed, 0);
                }
                other => panic!("case {case}: lossless retrieval resolved as {other:?}"),
            }
        }
        handle.shutdown().unwrap();
    }
}

#[test]
fn in_process_readers_behind_a_network_sink_match_the_synchronous_drive() {
    // A UDP fan-out attached and in-process subscribers on the ring: the
    // shape of a deployed station, released in multi-slot bursts so every
    // run the server serves spans several slots.
    let mut rng = StdRng::seed_from_u64(0xB2_38);
    for case in 0..prop_cases().div_ceil(8).max(4) {
        let station = random_station(&mut rng, [1, 2][case % 2]);
        let requests: Vec<(FileId, usize)> = station
            .specs()
            .iter()
            .flat_map(|s| [(s.id, rng.gen_range(0..24)), (s.id, rng.gen_range(0..24))])
            .collect();
        let serial = station.clone();
        let mut fleet: Vec<_> = requests
            .iter()
            .map(|&(file, at)| serial.subscribe(file, at).unwrap())
            .collect();
        let expected = serial
            .run_until_complete(&mut fleet, &mut NoErrors)
            .unwrap();

        let clock = ManualClock::new();
        let serving = station
            .serve_network_with(
                clock.clone(),
                RuntimeConfig {
                    queue_capacity: 1 << 20, // no lag: this is the identity leg
                },
                NetConfig::default(),
            )
            .unwrap();
        let handle = serving.runtime();
        let clients: Vec<_> = requests
            .iter()
            .map(|&(file, at)| handle.subscribe(file, at).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        while !clients.iter().all(|c| c.is_finished()) {
            assert!(Instant::now() < deadline, "case {case}: clients hung");
            clock.advance(rng.gen_range(2..=48));
            while handle.slots_served() < clock.released() as u64 {
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        for (client, expected) in clients.into_iter().zip(&expected) {
            match client.join().unwrap() {
                RetrievalResolution::Complete(outcome) => {
                    assert_eq!(outcome.data, expected.data, "case {case}");
                    assert_eq!(
                        outcome.completion_slot, expected.completion_slot,
                        "case {case} file {}",
                        expected.file
                    );
                }
                other => panic!("case {case}: lossless retrieval resolved as {other:?}"),
            }
        }
        // At rest, both reads of the one served count agree with the clock.
        let released = clock.released() as u64;
        assert_eq!(handle.slots_served(), released, "case {case}");
        assert_eq!(handle.stats().unwrap().slots_served, released);
        serving.shutdown().unwrap();
    }
}

#[test]
fn per_client_loss_is_seed_compatible_with_single_retrieval_serial_drives() {
    let mut rng = StdRng::seed_from_u64(0xB2_08);
    let cases = prop_cases().div_ceil(4).max(4);
    for case in 0..cases {
        let k = [1, 2][case % 2];
        let station = random_station(&mut rng, k);
        let serial = station.clone();

        let clock = ManualClock::new();
        let handle = station.serve_concurrent_with(
            clock.clone(),
            RuntimeConfig {
                queue_capacity: 1 << 20,
            },
        );
        let plans: Vec<(FileId, usize, u64)> = serial
            .specs()
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, 5 * i, rng.gen()))
            .collect();
        let mut expected = Vec::new();
        for &(file, at_slot, seed) in &plans {
            // One retrieval per serial drive: the channel-level sample
            // stream then coincides with a per-client process.
            let mut one = vec![serial.subscribe(file, at_slot).unwrap()];
            let outcome = serial
                .run_until_complete(&mut one, &mut BernoulliErrors::new(0.2, seed))
                .unwrap();
            expected.push(outcome.pop_or_panic());
        }
        let clients: Vec<_> = plans
            .iter()
            .map(|&(file, at_slot, seed)| {
                handle
                    .subscribe_with(file, at_slot, BernoulliErrors::new(0.2, seed))
                    .unwrap()
            })
            .collect();
        advance_until_finished(&clock, &clients);
        for (client, expected) in clients.into_iter().zip(&expected) {
            match client.join().unwrap() {
                RetrievalResolution::Complete(outcome) => {
                    assert_eq!(outcome.data, expected.data, "case {case}");
                    assert_eq!(outcome.completion_slot, expected.completion_slot);
                    assert_eq!(
                        outcome.errors_observed, expected.errors_observed,
                        "case {case}: the loss sample streams must coincide"
                    );
                }
                other => panic!("case {case}: retrieval resolved as {other:?}"),
            }
        }
        handle.shutdown().unwrap();
    }
}

trait PopOrPanic<T> {
    fn pop_or_panic(self) -> T;
}

impl<T> PopOrPanic<T> for Vec<T> {
    fn pop_or_panic(mut self) -> T {
        self.pop().expect("one retrieval yields one outcome")
    }
}

/// Records every `(slot, channel)` the driver samples; loses nothing.
#[derive(Default)]
struct RecordingModel {
    samples: Vec<(usize, usize)>,
}

impl ChannelErrorModel for RecordingModel {
    fn is_lost_on(&mut self, channel: usize, transmission: TransmissionRef<'_>) -> bool {
        self.samples.push((transmission.slot, channel));
        false
    }
}

#[test]
fn synchronous_error_sampling_order_is_locked_in() {
    let mut rng = StdRng::seed_from_u64(0xB2_09);
    for _case in 0..prop_cases().div_ceil(4).max(4) {
        let station = random_station(&mut rng, 2);
        let mut fleet: Vec<_> = station
            .specs()
            .iter()
            .enumerate()
            .flat_map(|(i, s)| {
                [
                    station.subscribe(s.id, 2 * i).unwrap(),
                    station.subscribe(s.id, 11 + 2 * i).unwrap(),
                ]
            })
            .collect();
        let mut recorder = RecordingModel::default();
        station
            .run_until_complete(&mut fleet, &mut recorder)
            .unwrap();
        assert!(!recorder.samples.is_empty());
        // The locked-in contract: slots are visited in ascending order; the
        // model is sampled at most once per (slot, channel); and the
        // samples drawn for any one channel form a strictly slot-ascending
        // sequence (the seed-compatibility guarantee for per-channel
        // models).  Within one slot the cross-channel order follows the
        // fleet (first listening retrieval), which the per-channel check
        // deliberately does not constrain.
        for pair in recorder.samples.windows(2) {
            assert!(
                pair[0].0 <= pair[1].0,
                "slot order violated: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut last_slot_of = std::collections::BTreeMap::new();
        for &(slot, channel) in &recorder.samples {
            assert!(
                seen.insert((slot, channel)),
                "({slot}, {channel}) was sampled twice"
            );
            if let Some(&prev) = last_slot_of.get(&channel) {
                assert!(prev < slot, "channel {channel} sampled out of slot order");
            }
            last_slot_of.insert(channel, slot);
        }
        // Every sample names a real channel of this station.
        let lanes = station.channel_count();
        assert!(recorder.samples.iter().all(|&(_, c)| c < lanes));
    }
}

#[test]
fn scheduled_swaps_are_atomic_under_concurrent_subscribers() {
    let mut rng = StdRng::seed_from_u64(0xB2_10);
    let cases = prop_cases().div_ceil(8).max(3);
    for case in 0..cases {
        let station = random_station(&mut rng, 2);
        let specs = station.specs().to_vec();
        let victim = specs[rng.gen_range(0..specs.len())].id;
        let victim_channel = station.channel_of(victim).unwrap();
        let witness = specs
            .iter()
            .map(|s| s.id)
            .find(|f| station.channel_of(*f) != Some(victim_channel));
        let witness_channel = witness.and_then(|w| station.channel_of(w));
        let target = ModeSpec::new("without-victim").files(
            specs
                .iter()
                .filter(|s| s.id != victim)
                .cloned()
                .collect::<Vec<_>>(),
        );
        let serial_witness = witness.map(|w| {
            let mut one = vec![station.subscribe(w, 0).unwrap()];
            station
                .run_until_complete(&mut one, &mut NoErrors)
                .unwrap()
                .pop_or_panic()
        });

        let clock = ManualClock::new();
        let handle = station.serve_concurrent(clock.clone());
        // In flight before any slot is served: a victim client (cancelled by
        // the immediate swap at slot 0) and, where the station has one, a
        // witness on an untouched channel (must complete byte-identically).
        let doomed = handle.subscribe(victim, 0).unwrap();
        let witness_client = witness.map(|w| handle.subscribe(w, 0).unwrap());
        let schedule = ModeSchedule::new().at(0, target, SwapPolicy::Immediate);
        let scheduler = handle.run_schedule(schedule);
        // Hold the clock until the prepared swap is queued so the flip
        // happens at its planned slot, before anything is transmitted.
        for _ in 0..20_000 {
            if handle.stats().unwrap().pending_swaps == 1 || scheduler.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        clock.advance(256);
        let outcomes = scheduler.join();
        assert_eq!(outcomes.len(), 1);
        let report = outcomes[0].result.as_ref().unwrap_or_else(|e| {
            panic!("case {case}: scheduled swap failed: {e}");
        });
        assert_eq!(report.flip_slot, 0);
        assert!(report.flipped_channels.contains(&victim_channel));

        match doomed.join() {
            Err(rtbdisk::Error::ModeChanged { file, .. }) => assert_eq!(file, victim),
            Ok(RetrievalResolution::ModeChanged { file, .. }) => assert_eq!(file, victim),
            other => panic!("case {case}: victim should cancel, got {other:?}"),
        }
        if let (Some(client), Some(expected)) = (witness_client, serial_witness.as_ref()) {
            let clients = vec![client];
            advance_until_finished(&clock, &clients);
            let untouched = witness_channel.is_some_and(|c| !report.flipped_channels.contains(&c));
            let client = clients.pop_or_panic();
            let lagged = client.stats().lagged_slots;
            match client.join().unwrap() {
                RetrievalResolution::Complete(outcome) => {
                    // Contents survive the swap whatever happened to the
                    // witness's channel; its timing is only pinned when the
                    // swap left that channel untouched (a re-shard may
                    // legitimately reprogram it) and the reader kept up: one
                    // the ring lapped took erasures for the slots it missed
                    // and completes later, by design.
                    assert_eq!(outcome.data, expected.data, "case {case}");
                    if untouched && lagged == 0 {
                        assert_eq!(outcome.completion_slot, expected.completion_slot);
                    } else if untouched {
                        assert!(outcome.completion_slot >= expected.completion_slot);
                    }
                }
                RetrievalResolution::ModeChanged { file, .. } => {
                    // Only legitimate when the re-shard actually flipped the
                    // witness's channel AND changed its dispersal (so its
                    // collected blocks could not be carried over).  An
                    // untouched channel must never lose a retrieval.
                    assert!(
                        !untouched,
                        "case {case}: witness {file} on an untouched channel was cancelled"
                    );
                }
            }
        }

        // Atomicity on the wire: every slot of every lane decodes under
        // exactly one epoch, and the flip happened at one boundary.
        let station = handle.shutdown().unwrap();
        for lane in 0..station.bank().lane_count() {
            let before = station
                .bank()
                .epoch_at(lane, report.flip_slot.saturating_sub(1));
            let after = station.bank().epoch_at(lane, report.flip_slot);
            if report.flipped_channels.contains(&lane) {
                assert_eq!(after, Some(report.epoch), "case {case} lane {lane}");
            } else {
                assert_eq!(before, after, "untouched lanes never bump epochs");
            }
        }
    }
}

/// A lossless model that is slow to answer — which makes its client task
/// fall behind a fast server.
struct SlowModel;

impl ErrorModel for SlowModel {
    fn is_lost(&mut self, _transmission: TransmissionRef<'_>) -> bool {
        std::thread::sleep(Duration::from_millis(2));
        false
    }
}

#[test]
fn lagging_subscribers_drop_slots_as_erasures_without_stalling_the_server() {
    // One file, threshold 2: the client completes from any two distinct
    // blocks that actually reach it, however many slots lag drops.
    let station = Broadcast::builder()
        .file(GeneralizedFileSpec::new(FileId(1), 2, vec![12, 16]).unwrap())
        .build()
        .unwrap();
    let clock = ManualClock::new();
    let handle = station.serve_concurrent_with(clock.clone(), RuntimeConfig { queue_capacity: 1 });
    let client = handle.subscribe_with(FileId(1), 0, SlowModel).unwrap();
    let clients = vec![client];
    advance_until_finished(&clock, &clients);
    // Let the server work through everything the clock released before
    // reading the fleet counters.
    let fleet = loop {
        let fleet = handle.stats().unwrap();
        if fleet.slots_served == clock.released() as u64 {
            break fleet;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let client = clients.pop_or_panic();
    let stats = client.stats();
    assert!(
        fleet.lagged_slots > 0 && stats.lagged_slots > 0,
        "a capacity-1 queue against a free-running server must lag (fleet {fleet:?})"
    );
    assert_eq!(stats.lagged_slots, fleet.lagged_slots);
    assert_eq!(stats.lag_erasures, fleet.lag_erasures);
    match client.join().unwrap() {
        RetrievalResolution::Complete(outcome) => {
            assert!(!outcome.data.is_empty());
            // Lag was booked as erasures: the retrieval observed errors even
            // though its loss model never loses.
            assert!(
                outcome.errors_observed > 0,
                "dropped file blocks must surface as observed erasures"
            );
            assert!(outcome.errors_observed as u64 <= stats.lag_erasures);
        }
        other => panic!("lagging retrieval should still complete, got {other:?}"),
    }
    // The server never stalled: it worked through everything released.
    assert_eq!(fleet.slots_served, clock.released() as u64);
    handle.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Retention: a served station keeps only the history a live reader can still
// ask about.

/// Releases `slots` more slots and waits until the server has served them.
fn release(clock: &ManualClock, handle: &RuntimeHandle, slots: usize) {
    clock.advance(slots);
    while handle.slots_served() < clock.released() as u64 {
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// Gives `file` new bytes (every one `fill`) with an immediate swap at the
/// serving cursor; returns the flip slot.
fn refresh(handle: &RuntimeHandle, file: FileId, fill: u8) -> usize {
    let air = handle.snapshot().unwrap();
    let bytes = vec![fill; air.files().get(file).unwrap().total_bytes()];
    let same = ModeSpec::new(format!("refresh-{fill}")).files(air.specs().to_vec());
    let prepared = air
        .prepare_mode_with_contents(&same, BTreeMap::from([(file, bytes)]))
        .unwrap();
    let at = handle.slots_served() as usize;
    let report = handle.swap_at(prepared, at, SwapPolicy::Immediate).unwrap();
    assert_eq!(report.flip_slot, at, "a parked server flips at its cursor");
    report.flip_slot
}

#[test]
fn swapped_out_programs_are_freed_once_no_reader_can_reach_them() {
    let mut rng = StdRng::seed_from_u64(0xB2_11);
    for case in 0..prop_cases().div_ceil(8).max(4) {
        let station = random_station(&mut rng, [1, 2][case % 2]);
        let files: Vec<FileId> = station.specs().iter().map(|s| s.id).collect();
        let clock = ManualClock::new();
        let handle = station.serve_concurrent(clock.clone());
        // Every program that was ever on the air, by channel.
        let mut programs = Vec::new();
        for round in 1..=6u8 {
            let air = handle.snapshot().unwrap();
            for c in 0..air.channel_count() {
                programs.push((c, Arc::downgrade(&air.bank().current_arc(c).unwrap())));
            }
            drop(air);
            let flip = refresh(&handle, files[rng.gen_range(0..files.len())], round);
            // No ring subscriber: everything before the flip is retired,
            // and only the programs on the air are still alive.
            let air = handle.snapshot().unwrap();
            assert_eq!(air.bank().retired_before(), flip, "case {case}");
            for (c, program) in &programs {
                let on_air = air.bank().current_arc(*c).unwrap();
                assert!(
                    program
                        .upgrade()
                        .is_none_or(|held| Arc::ptr_eq(&held, &on_air)),
                    "case {case} round {round}: a swapped-out program of channel {c} is alive"
                );
            }
            release(&clock, &handle, rng.gen_range(0..=40));
        }
        handle.shutdown().unwrap();
    }
}

/// Parks its reader inside the delivery of one slot until resumed.
struct PauseAt {
    slot: usize,
    arrived: mpsc::Sender<usize>,
    resume: mpsc::Receiver<()>,
}

impl ErrorModel for PauseAt {
    fn is_lost(&mut self, transmission: TransmissionRef<'_>) -> bool {
        if transmission.slot == self.slot {
            self.arrived.send(transmission.slot).unwrap();
            self.resume.recv().unwrap();
        }
        false
    }
}

#[test]
fn a_lagging_reader_books_exact_lag_across_refreshes_that_retire_history() {
    let station = Broadcast::builder()
        .file(GeneralizedFileSpec::new(FileId(1), 2, vec![12, 16]).unwrap())
        .file(GeneralizedFileSpec::new(FileId(2), 1, vec![10, 14]).unwrap())
        .build()
        .unwrap();
    // A content refresh keeps the program, so every epoch lays its slots
    // out as the first one does; file 1's bytes never change.
    let layout = station.clone();
    let expected = layout.retrieve(FileId(1), 0, &mut NoErrors).unwrap().data;
    let capacity = 64;
    let clock = ManualClock::new();
    let handle = station.serve_concurrent_with(
        clock.clone(),
        RuntimeConfig {
            queue_capacity: capacity,
        },
    );
    // With nobody listening, a refresh retires every slot served.
    release(&clock, &handle, 20);
    assert_eq!(refresh(&handle, FileId(2), 1), 20);

    // A reader asking for slot 40, parked inside its first data slot.
    let start = 40;
    let parked = (start..).find(|&s| layout.transmit(s).is_some()).unwrap();
    let (arrived, arrivals) = mpsc::channel();
    let (resume, resumed) = mpsc::channel();
    let pause = PauseAt {
        slot: parked,
        arrived,
        resume: resumed,
    };
    let client = handle.subscribe_with(FileId(1), start, pause).unwrap();
    release(&clock, &handle, parked + 1 - 20);
    assert_eq!(arrivals.recv_timeout(Duration::from_secs(10)), Ok(parked));
    // While it is parked, file 2 is refreshed four times and the ring laps
    // it; its start holds the slot floor for everything it may replay.
    let mut flips = Vec::new();
    for fill in 2..=5 {
        release(&clock, &handle, 2 * capacity);
        flips.push(refresh(&handle, FileId(2), fill));
    }
    release(&clock, &handle, 2 * capacity);
    assert_eq!(handle.snapshot().unwrap().bank().retired_before(), start);

    // Resumed, it books the overwritten span as lag and completes from the
    // cells still in the ring, retuning through every refresh.
    resume.send(()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !client.is_finished() {
        assert!(
            Instant::now() < deadline,
            "the resumed reader never finished"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // The span is replayed on the epoch the reader was tuned to, which the
    // first refresh while it was parked ended.
    let lagged: Vec<FileId> = (parked + 1..flips[0])
        .filter_map(|s| layout.transmit(s).map(|tx| tx.block.file()))
        .collect();
    let stats = client.stats();
    assert!(stats.lagged_slots > 0);
    assert_eq!(stats.lagged_slots, lagged.len() as u64);
    let of_file = lagged.iter().filter(|&&f| f == FileId(1)).count();
    assert_eq!(stats.lag_erasures, of_file as u64);
    match client.join().unwrap() {
        RetrievalResolution::Complete(outcome) => assert_eq!(outcome.data, expected),
        other => panic!("the lagging reader should complete, got {other:?}"),
    }
    handle.shutdown().unwrap();
}

#[test]
fn a_far_future_subscriber_retunes_through_refreshes_that_land_before_its_start() {
    let mut rng = StdRng::seed_from_u64(0xB2_12);
    for case in 0..prop_cases().div_ceil(8).max(4) {
        let station = random_station(&mut rng, 1);
        let files: Vec<FileId> = station.specs().iter().map(|s| s.id).collect();
        // `moving` is refreshed; `beside` shares its (only) channel.
        let moving = files[rng.gen_range(0..files.len())];
        let beside = *files.iter().find(|&&f| f != moving).unwrap();
        let expected = station.retrieve(beside, 0, &mut NoErrors).unwrap().data;
        let cycle = station.program().broadcast_period();
        let clock = ManualClock::new();
        let handle = station.serve_concurrent(clock.clone());
        release(&clock, &handle, rng.gen_range(0..cycle));
        let admitted = handle.slots_served() as usize;
        let start = admitted + 10 * cycle;
        let client = handle.subscribe(beside, start).unwrap();
        let mut flip = admitted;
        for fill in 1..=rng.gen_range(1..=4u8) {
            release(&clock, &handle, rng.gen_range(1..=cycle));
            flip = refresh(&handle, moving, fill);
        }
        // Its start is far ahead, so the slot floor follows the serving
        // cursor; its tuned epoch keeps every swap note it will ask for.
        assert!(flip < start);
        assert_eq!(handle.snapshot().unwrap().bank().retired_before(), flip);
        let clients = vec![client];
        advance_until_finished(&clock, &clients);
        match clients.pop_or_panic().join() {
            Ok(RetrievalResolution::Complete(outcome)) => {
                assert_eq!(outcome.data, expected, "case {case}");
                assert!(outcome.completion_slot >= start);
            }
            other => panic!("case {case}: the far-future reader should retune, got {other:?}"),
        }
        handle.shutdown().unwrap();
    }
}

#[test]
fn snapshots_publish_each_landed_swap_and_its_retirement() {
    let mut rng = StdRng::seed_from_u64(0xB2_13);
    for case in 0..prop_cases().div_ceil(8).max(4) {
        let station = random_station(&mut rng, [1, 2][case % 2]);
        let files: Vec<FileId> = station.specs().iter().map(|s| s.id).collect();
        let clock = ManualClock::new();
        let handle = station.serve_concurrent(clock.clone());
        // A subscriber far ahead of the cursor holds no slot floor, so the
        // retirement behind a swap follows the swap's own flip.
        let start = 1_000_000;
        let client = handle.subscribe(files[0], start).unwrap();
        let mut flip = 0;
        for fill in 1..=3u8 {
            release(&clock, &handle, rng.gen_range(0..=40));
            let before = handle.snapshot().unwrap();
            let file = files[rng.gen_range(0..files.len())];
            let stale = {
                let same = ModeSpec::new("stale").files(before.specs().to_vec());
                let bytes = vec![!fill; before.files().get(file).unwrap().total_bytes()];
                before.prepare_mode_with_contents(&same, BTreeMap::from([(file, bytes)]))
            };
            flip = refresh(&handle, file, fill);

            // Published before `swap_at` returned: the new epoch and mode,
            // and the history the swap retired is gone.
            let after = handle.snapshot().unwrap();
            let context = format!("case {case} refresh {fill}");
            assert_eq!(after.epoch(), before.epoch() + 1, "{context}");
            assert_eq!(after.mode(), format!("refresh-{fill}"), "{context}");
            assert_eq!(after.bank().retired_before(), flip, "{context}");
            if let Some(retired) = flip.checked_sub(1) {
                assert!(after.transmit(retired).is_none(), "{context}");
            }
            let served = after.retrieve(file, flip, &mut NoErrors).unwrap().data;
            assert!(served.iter().all(|&b| b == fill), "{context}");

            // A preparation made before the swap no longer describes the air.
            match handle.swap_at(stale.unwrap(), flip, SwapPolicy::Immediate) {
                Err(Error::StalePreparation {
                    prepared_epoch,
                    current_epoch,
                }) => {
                    assert_eq!(prepared_epoch, before.epoch(), "{context}");
                    assert_eq!(current_epoch, after.epoch(), "{context}");
                }
                other => panic!("{context}: a stale preparation swapped in: {other:?}"),
            }
            assert_eq!(handle.snapshot().unwrap().epoch(), after.epoch());
        }
        assert!(flip < start);
        handle.unsubscribe(&client);
        let _ = client.join();
        handle.shutdown().unwrap();
    }
}

#[test]
fn wall_clock_runtime_completes_multi_client_retrievals_with_a_planned_swap() {
    let station =
        Broadcast::builder()
            .files((1..=4).map(|i| {
                GeneralizedFileSpec::new(FileId(i), 1, vec![8 + 2 * i, 12 + 2 * i]).unwrap()
            }))
            .channels(2)
            .build()
            .unwrap();
    let specs = station.specs().to_vec();
    let victim = FileId(1);
    let target = ModeSpec::new("without-f1").files(
        specs
            .iter()
            .filter(|s| s.id != victim)
            .cloned()
            .collect::<Vec<_>>(),
    );

    let clock = WallClock::new(Duration::from_millis(2));
    let handle = station.serve_concurrent(clock.clone());
    // Multi-client: every file, subscribed while the clock is already
    // running.
    let early: Vec<_> = specs
        .iter()
        .map(|s| handle.subscribe(s.id, 0).unwrap())
        .collect();
    // Planned far enough out that preparing the mode (debug builds, busy
    // CI) comfortably beats the clock.
    let planned = 400;
    let schedule = ModeSchedule::new().at(planned, target, SwapPolicy::Immediate);
    let scheduler = handle.run_schedule(schedule);
    for client in early {
        match client.join().unwrap() {
            RetrievalResolution::Complete(outcome) => assert!(!outcome.data.is_empty()),
            other => panic!("pre-swap client should complete, got {other:?}"),
        }
    }
    let outcomes = scheduler.join();
    let report = outcomes[0]
        .result
        .as_ref()
        .expect("the scheduled swap applies");
    assert_eq!(
        report.requested_slot, planned,
        "the swap fired at its planned slot, not whenever the scheduler got around to it"
    );
    assert_eq!(report.flip_slot, planned);
    // Post-swap subscriber retrieves under the new mode.
    let survivor = specs.iter().find(|s| s.id != victim).unwrap().id;
    let late = handle.subscribe(survivor, planned).unwrap();
    match late.join().unwrap() {
        RetrievalResolution::Complete(outcome) => {
            assert_eq!(outcome.file, survivor);
            assert!(outcome.completion_slot >= planned);
        }
        other => panic!("post-swap client should complete, got {other:?}"),
    }
    let station = handle.shutdown().unwrap();
    assert_eq!(station.mode(), "without-f1");
    assert!(station.epoch() >= 1);
}

// ---------------------------------------------------------------------------
// Telemetry determinism: under a ManualClock no wall-clock quantity may be
// recorded, so two identical runs must produce identical telemetry.

/// One fully deterministic single-subscriber run: subscribe before any slot
/// is released, release one burst, wait for quiescence, read the telemetry.
fn single_subscriber_run() -> (Vec<rtbdisk::Event>, rtbdisk::bobs::RegistrySnapshot) {
    let station = Broadcast::builder()
        .file(GeneralizedFileSpec::new(FileId(1), 1, vec![4]).unwrap())
        .build()
        .unwrap();
    let clock = ManualClock::new();
    let handle = station.serve_concurrent_with(
        clock.clone(),
        RuntimeConfig {
            queue_capacity: 1 << 12,
        },
    );
    handle.telemetry().set_recording(true);
    let client = handle.subscribe(FileId(1), 0).unwrap();
    // One release within the server's burst cap: every slot publishes in a
    // single burst, so the client's resolution command is processed after
    // the last slot event — a fixed interleaving.
    clock.advance(32);
    match client.join().unwrap() {
        RetrievalResolution::Complete(outcome) => assert!(!outcome.data.is_empty()),
        other => panic!("the lossless retrieval must complete, got {other:?}"),
    }
    // Quiesce: every released slot served, the resolution booked.
    for _ in 0..20_000 {
        let stats = handle.stats().unwrap();
        if stats.slots_served == 32 && stats.completed == 1 {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let trace = handle.telemetry().trace_snapshot();
    let snapshot = handle.telemetry().snapshot();
    handle.shutdown().unwrap();
    (trace, snapshot)
}

#[test]
fn manual_clock_telemetry_is_deterministic_for_a_single_subscriber() {
    let (trace_a, snap_a) = single_subscriber_run();
    let (trace_b, snap_b) = single_subscriber_run();
    assert_eq!(
        trace_a, trace_b,
        "two identical ManualClock runs must produce identical event traces"
    );
    assert_eq!(
        snap_a, snap_b,
        "two identical ManualClock runs must produce identical registry snapshots"
    );
    // The trace has real structure, not vacuous equality.
    assert!(trace_a
        .iter()
        .any(|e| matches!(e, rtbdisk::Event::SubscriberAdmitted { .. })));
    assert!(trace_a
        .iter()
        .any(|e| matches!(e, rtbdisk::Event::SlotPublished { .. })));
    assert!(trace_a
        .iter()
        .any(|e| matches!(e, rtbdisk::Event::SubscriberResolved { .. })));
    // The determinism mechanism itself: a ManualClock has no wall-time
    // deadlines, so every wall-clock histogram stayed empty.
    assert!(snap_a.histograms.values().all(|h| h.count == 0));
}

/// A multi-subscriber run: client threads resolve concurrently, so the
/// *order* of resolution events races — the event multiset and the final
/// registry state must still be identical across identical runs.
fn multi_subscriber_run() -> (Vec<String>, rtbdisk::bobs::RegistrySnapshot) {
    let station =
        Broadcast::builder()
            .files((1..=4).map(|i| {
                GeneralizedFileSpec::new(FileId(i), 1, vec![8 + 2 * i, 12 + 2 * i]).unwrap()
            }))
            .channels(2)
            .build()
            .unwrap();
    let clock = ManualClock::new();
    let handle = station.serve_concurrent_with(
        clock.clone(),
        RuntimeConfig {
            queue_capacity: 1 << 12,
        },
    );
    handle.telemetry().set_recording(true);
    let clients: Vec<_> = (1..=4)
        .map(|i| handle.subscribe(FileId(i), (i as usize - 1) * 7).unwrap())
        .collect();
    // A fixed release, ample for every completion, inside the server's
    // single-burst cap: every cell is built in one burst while the whole
    // fleet is still seated, so which slots publish cells cannot depend on
    // how fast the client threads happen to resolve.
    clock.advance(64);
    for _ in 0..20_000 {
        if clients.iter().all(|c| c.is_finished()) {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    for client in clients {
        match client.join().unwrap() {
            RetrievalResolution::Complete(_) => {}
            other => panic!("lossless retrievals must complete, got {other:?}"),
        }
    }
    for _ in 0..20_000 {
        let stats = handle.stats().unwrap();
        if stats.slots_served == 64 && stats.completed == 4 {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let mut events: Vec<String> = handle
        .telemetry()
        .trace_snapshot()
        .iter()
        .map(|e| format!("{e:?}"))
        .collect();
    events.sort();
    let snapshot = handle.telemetry().snapshot();
    handle.shutdown().unwrap();
    (events, snapshot)
}

#[test]
fn manual_clock_telemetry_is_deterministic_across_a_concurrent_fleet() {
    let (events_a, snap_a) = multi_subscriber_run();
    let (events_b, snap_b) = multi_subscriber_run();
    assert_eq!(
        events_a, events_b,
        "identical runs must record the same event multiset"
    );
    assert_eq!(snap_a, snap_b, "identical runs must agree on every metric");
    assert!(snap_a.histograms.values().all(|h| h.count == 0));
    assert_eq!(snap_a.counters["brt_completed"], 4);
}
