//! Resilience integration of the network path: retrievals through a
//! seeded `bfault::ImpairedLink` survive loss, partitions concealing mode
//! swaps, and membership wipes — byte-identical to the in-process drive —
//! and the failure modes that remain degrade into *named* errors.

use bytes::Bytes;
use rtbdisk::bfault::{FaultPlan, Impairer, Impairments};
use rtbdisk::bnet::wire::{encode, Frame, SlotFrame};
use rtbdisk::bnet::ClientState;
use rtbdisk::ida::{BlockHeader, DispersedBlock};
use rtbdisk::{
    Broadcast, ControlClient, FileId, GeneralizedFileSpec, ManualClock, ModeSpec, NetClient,
    NetConfig, NetError, NetServing, NoErrors, RecoveryConfig, RuntimeConfig, Station, SwapPolicy,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Files of `m = 4` blocks: a retrieval cannot complete off the first slot
/// or two, so a fault window opening at slot 2 always interrupts it.
fn station() -> Station {
    let files = (1..=4u32).map(|i| {
        GeneralizedFileSpec::new(FileId(i), 4, vec![40 + 4 * i, 48 + 4 * i]).expect("feasible spec")
    });
    Broadcast::builder()
        .files(files)
        .channels(2)
        .build()
        .expect("the test specs are feasible")
}

/// What the in-process serial drive reconstructs — the reference bytes.
fn expected_bytes(station: &Station, file: FileId) -> Vec<u8> {
    let mut fleet = vec![station.subscribe(file, 0).unwrap()];
    station
        .run_until_complete(&mut fleet, &mut NoErrors)
        .unwrap()
        .pop()
        .unwrap()
        .data
}

/// A file sharing a channel with `victim`, whose removal forces the
/// victim's channel to reprogram (epoch bump) without touching the
/// victim's own dispersal.
fn co_channel_sibling(station: &Station, victim: FileId) -> FileId {
    let channel = station.channel_of(victim);
    station
        .specs()
        .iter()
        .map(|s| s.id)
        .find(|&f| f != victim && station.channel_of(f) == channel)
        .expect("two files share a channel")
}

/// Paces the manual clock from a thread of its own (32 slots / 2 ms), so
/// the main thread can block on `swap_at` while slots keep flowing.
fn spawn_driver(clock: ManualClock) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let handle = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(32);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    });
    (stop, handle)
}

/// Waits for the relay-fronted client's join to reach the station before
/// any slot is released — the fault windows are scripted from slot 2.
fn wait_for_join(serving: &NetServing) {
    let mut budget = 200_000i64;
    while serving.net_stats().peers < 1 {
        std::thread::sleep(Duration::from_micros(50));
        budget -= 1;
        assert!(budget > 0, "the client never joined through the relay");
    }
}

#[test]
fn the_same_fault_plan_impairs_a_session_identically_twice() {
    // Socket-free determinism: the same plan over the same frame stream
    // must leave the retrieval state machine with *identical* counters.
    let frame = |slot: u64, index: u32| {
        encode(&Frame::Slot(SlotFrame {
            epoch: 1,
            channel: 0,
            slot,
            block: DispersedBlock::new(
                BlockHeader {
                    file: FileId(1),
                    index,
                    m: 3,
                    n: 6,
                    original_len: 12,
                },
                Bytes::from(vec![index as u8; 4]),
            ),
        }))
    };
    let plan = FaultPlan::seeded(0xD15C).down(Impairments {
        drop: 0.25,
        duplicate: 0.10,
        reorder: 0.10,
        corrupt: 0.10,
        tamper: 0.0,
        delay: Duration::ZERO,
    });
    let run = || {
        let mut impairer: Impairer = plan.down_impairer();
        let mut state = ClientState::new(FileId(1));
        for slot in 0..96u64 {
            for delivered in impairer.apply(&frame(slot, (slot % 6) as u32)) {
                state.feed_datagram(&delivered);
            }
        }
        if let Some(held) = impairer.flush() {
            state.feed_datagram(&held);
        }
        (state.stats(), impairer.stats())
    };
    let (client_a, link_a) = run();
    let (client_b, link_b) = run();
    assert_eq!(client_a, client_b, "client counters must replay exactly");
    assert_eq!(link_a, link_b, "impairment counters must replay exactly");
    // The retrieval completes within its first slots, and a completed
    // session books no more erasures: the client sees the plan's losses
    // as decode errors and slot gaps.
    assert!(
        client_a.decode_errors > 0 && client_a.gap_erasures > 0,
        "the plan must actually impair"
    );
}

#[test]
fn a_partition_concealing_a_mode_swap_recovers_through_resync() {
    let station = station();
    let reference = station.clone();
    let victim = FileId(1);
    let sibling = co_channel_sibling(&station, victim);
    let specs = station.specs().to_vec();
    let expected = expected_bytes(&reference, victim);

    let clock = ManualClock::new();
    let serving = station
        .serve_network_with(
            clock.clone(),
            RuntimeConfig::default(),
            NetConfig::default().with_control_plane(),
        )
        .unwrap();
    // Design the swap before the clock starts: dropping the victim's
    // co-channel sibling reprograms the victim's channel (epoch bump)
    // while the victim's own blocks stay byte-identical.
    let target = ModeSpec::new("shed-sibling").files(
        specs
            .iter()
            .filter(|s| s.id != sibling)
            .cloned()
            .collect::<Vec<_>>(),
    );
    let prepared = serving.runtime().prepare_mode(&target).unwrap();

    // Black-hole slots [2, 770) and land the swap at 384, inside the
    // window: the client cannot observe the epoch flip live and must
    // resync through the control plane when the link heals.
    let link = rtbdisk::bfault::ImpairedLink::spawn(
        serving.data_addr(),
        FaultPlan::seeded(0xC0DE).down_loss(0.20).partition(2, 770),
    )
    .unwrap();
    let config = RecoveryConfig {
        join_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        watchdog: Duration::from_millis(40),
        max_recoveries: 32,
        ..RecoveryConfig::default()
    }
    .with_control(serving.control_addr().unwrap());
    let client = NetClient::join_with(link.client_addr(), victim, config).unwrap();
    wait_for_join(&serving);

    let retriever = std::thread::spawn(move || client.retrieve_with_stats(Duration::from_secs(30)));
    let (stop, driver) = spawn_driver(clock);
    serving
        .swap_at(prepared, 384, SwapPolicy::Immediate)
        .unwrap();
    let (result, stats) = retriever.join().expect("retriever thread exits");
    stop.store(true, Ordering::Relaxed);
    driver.join().unwrap();

    let outcome = result.expect("the retrieval must survive the concealed swap");
    assert_eq!(
        outcome.data, expected,
        "recovery must reconstruct byte-identically across the epoch flip"
    );
    assert!(
        outcome.completion_slot >= 770,
        "completion at slot {} cannot predate the partition's end",
        outcome.completion_slot
    );
    assert!(stats.resyncs >= 1, "recovery must have resynced: {stats:?}");
    assert!(stats.rejoins >= 1, "recovery must have rejoined: {stats:?}");
    link.shutdown();
    serving.shutdown().unwrap();
}

#[test]
fn a_membership_wipe_starves_the_client_until_it_rejoins() {
    let station = station();
    let reference = station.clone();
    let victim = FileId(2);
    let expected = expected_bytes(&reference, victim);

    let clock = ManualClock::new();
    let serving = station.serve_network(clock.clone()).unwrap();
    // The scripted server restart sends `Leave` for the client's flow at
    // slot 4: the station evicts it mid-retrieval and traffic stops —
    // exactly the silent starvation the join re-send must recover from
    // even though datagrams *did* arrive earlier.
    let link = rtbdisk::bfault::ImpairedLink::spawn(
        serving.data_addr(),
        FaultPlan::seeded(0xEB1C).restart_server_at(4),
    )
    .unwrap();
    let config = RecoveryConfig {
        join_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        watchdog: Duration::from_millis(200),
        ..RecoveryConfig::default()
    };
    let client = NetClient::join_with(link.client_addr(), victim, config).unwrap();
    wait_for_join(&serving);

    let retriever = std::thread::spawn(move || client.retrieve_with_stats(Duration::from_secs(30)));
    let (stop, driver) = spawn_driver(clock);
    let (result, stats) = retriever.join().expect("retriever thread exits");
    stop.store(true, Ordering::Relaxed);
    driver.join().unwrap();

    let outcome = result.expect("the evicted client must rejoin and complete");
    assert_eq!(outcome.data, expected);
    assert!(
        stats.rejoins >= 1,
        "the supervision loop must have re-sent its join: {stats:?}"
    );
    assert!(link.stats().restarts == 1, "the wipe must have fired once");
    link.shutdown();
    serving.shutdown().unwrap();
}

#[test]
fn control_plane_timeouts_surface_as_named_errors() {
    // A listener that accepts nothing: connects succeed via the backlog,
    // replies never come.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = silent.local_addr().unwrap();
    let mut client = ControlClient::connect(addr).unwrap();
    match client.subscribe(FileId(1)) {
        Err(NetError::Timeout { during }) => assert_eq!(during, "subscribe reply"),
        other => panic!("a silent control plane must surface a named timeout, got {other:?}"),
    }
    match client.resync() {
        Err(NetError::Timeout { during }) => assert_eq!(during, "resync reply"),
        other => panic!("a silent control plane must surface a named timeout, got {other:?}"),
    }
}

#[test]
fn recovery_rounds_are_bounded_and_degrade_to_rejoined() {
    // A station that never existed: the socket is bound just long enough
    // to reserve an address nobody answers on.
    let dead = {
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.local_addr().unwrap()
    };
    let config = RecoveryConfig {
        join_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(20),
        watchdog: Duration::from_millis(30),
        max_recoveries: 2,
        ..RecoveryConfig::default()
    };
    let client = NetClient::join_with(dead, FileId(1), config).unwrap();
    let (result, stats) = client.retrieve_with_stats(Duration::from_secs(10));
    match result {
        Err(NetError::Rejoined { attempts, cause }) => {
            assert_eq!(attempts, 2, "rounds must stop at max_recoveries");
            assert!(
                matches!(*cause, NetError::NoSignal { file } if file == FileId(1)),
                "the underlying failure must ride along, got {cause:?}"
            );
        }
        other => panic!("a dead station must degrade to Rejoined, got {other:?}"),
    }
    assert!(
        stats.partition_suspects >= 1,
        "the watchdog must have suspected the silence: {stats:?}"
    );
}
