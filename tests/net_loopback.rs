//! Loopback integration of the network-serving path: a station on real
//! UDP/TCP sockets, clients in other threads, reconstruction byte-identical
//! to the in-process drive — with injected garbage datagrams accounted as
//! erasures along the way.

use rtbdisk::bnet::wire::{encode, ControlFrame, Frame};
use rtbdisk::bnet::{NetClient, NetServer};
use rtbdisk::{
    Broadcast, ControlClient, Error, FileId, GeneralizedFileSpec, ManualClock, ModeSchedule,
    ModeSpec, NetConfig, NetError, NetServing, NoErrors, RecoveryConfig, RuntimeConfig, Station,
    SwapPolicy,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

fn station() -> Station {
    let files = (1..=4u32).map(|i| {
        GeneralizedFileSpec::new(FileId(i), 1, vec![10 + 2 * i, 14 + 2 * i]).expect("feasible spec")
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

/// Advances the manual clock in small batches until `done` reports true
/// (or a generous budget runs out) — small batches keep the loopback send
/// rate below what the receive buffers drop wholesale.
fn advance_until(clock: &ManualClock, mut done: impl FnMut() -> bool) {
    for _ in 0..4096 {
        if done() {
            return;
        }
        clock.advance(32);
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("the loopback clients did not finish within the advance budget");
}

#[test]
fn loopback_clients_reconstruct_byte_identically_to_in_process_serving() {
    let station = station();
    let reference = station.clone();
    let clock = ManualClock::new();
    let serving = station.serve_network(clock.clone()).unwrap();
    let addr = serving.data_addr();

    let files = [FileId(1), FileId(2), FileId(3), FileId(4)];
    let clients: Vec<_> = files
        .map(|file| {
            let client = NetClient::join(addr, file).unwrap();
            std::thread::spawn(move || client.retrieve(Duration::from_secs(30)))
        })
        .into_iter()
        .collect();

    // Wait for the whole fleet to register before asserting anything.  The
    // monotonic `joins` counter, not the `peers` gauge: a fast client can
    // join, complete (this loop advances the clock) and *leave* between two
    // samples, so `peers` may never be observed at its peak.
    advance_until(&clock, || serving.net_stats().joins as usize == files.len());
    let mut joined = Vec::new();
    for (client, file) in clients.into_iter().zip(files) {
        // Keep serving until this client's thread resolves.
        advance_until(&clock, || client.is_finished());
        let outcome = client
            .join()
            .expect("client thread does not panic")
            .expect("the loopback retrieval completes");
        assert_eq!(outcome.file, file);
        assert_eq!(
            outcome.data,
            expected_bytes(&reference, file),
            "file {file}: the wire must reconstruct what the in-process drive does"
        );
        joined.push(file);
    }
    assert_eq!(joined.len(), files.len());

    let stats = serving.net_stats();
    assert_eq!(stats.joins as usize, files.len());
    assert!(stats.frames_sent > 0);
    assert!(stats.datagrams_sent >= stats.frames_sent);
    let station = serving.shutdown().unwrap();
    assert_eq!(station.specs().len(), 4, "shutdown returns the station");
}

#[test]
fn garbage_datagrams_are_accounted_as_erasures_and_do_not_break_retrieval() {
    let station = station();
    let reference = station.clone();
    let file = FileId(2);
    let clock = ManualClock::new();
    let serving = station.serve_network(clock.clone()).unwrap();

    let client = NetClient::join(serving.data_addr(), file).unwrap();
    let victim = client.local_addr().unwrap();
    let retrieval = std::thread::spawn(move || client.retrieve(Duration::from_secs(30)));

    // An interferer blasts garbage straight at the client's socket: short
    // datagrams, bad magic, and truncated-but-plausible frames.  Sent
    // before the first clock advance, so loopback FIFO guarantees the
    // client chews through all of it before any slot frame arrives.
    let noise = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    const GARBAGE: usize = 32;
    for i in 0..GARBAGE {
        let junk: Vec<u8> = match i % 3 {
            0 => vec![0xFF; 5],
            1 => b"BNETgarbage-not-a-frame".to_vec(),
            _ => vec![b'B', b'N', b'E', b'T', 1, 1, i as u8],
        };
        noise.send_to(&junk, victim).unwrap();
    }

    // `joins` (monotonic), not `peers` (transient): the client may complete
    // and leave between two samples once the clock starts moving.
    advance_until(&clock, || serving.net_stats().joins >= 1);
    advance_until(&clock, || retrieval.is_finished());
    let outcome = retrieval
        .join()
        .expect("client thread does not panic")
        .expect("garbage on the wire must not break the retrieval");
    assert_eq!(outcome.data, expected_bytes(&reference, file));
    assert!(
        outcome.errors_observed >= GARBAGE,
        "all {GARBAGE} garbage datagrams must be absorbed as erasures \
         (saw {})",
        outcome.errors_observed
    );
    serving.shutdown().unwrap();
}

#[test]
fn the_tcp_control_plane_answers_subscriptions_and_resyncs() {
    let station = station();
    let directory = station.network_directory();
    let clock = ManualClock::new();
    let serving = station
        .serve_network_with(
            clock.clone(),
            RuntimeConfig::default(),
            NetConfig::default().with_control_plane(),
        )
        .unwrap();
    let control = serving
        .control_addr()
        .expect("a control plane was asked for");

    let mut client = ControlClient::connect(control).unwrap();
    for (file, info) in &directory {
        let answer = client.subscribe(FileId(*file)).unwrap();
        assert_eq!(answer, *info, "the ack must mirror the directory");
    }
    match client.subscribe(FileId(99)) {
        Err(NetError::Refused { file, .. }) => assert_eq!(file, FileId(99)),
        other => panic!("unknown file must be refused, got {other:?}"),
    }

    // Resync reflects serving progress.
    let (_, before) = client.resync().unwrap();
    clock.advance(64);
    advance_until(&clock, || {
        serving
            .runtime()
            .stats()
            .map(|s| s.slots_served)
            .unwrap_or(0)
            >= 64
    });
    let (_, after) = client.resync().unwrap();
    assert!(
        after > before && after >= 64,
        "resync must reflect serving progress ({before} → {after})"
    );

    // Requests after a connection's first must not stall: a frame written
    // as length-then-packet waits out Nagle + delayed ACK (~40 ms on
    // loopback) every time; one write per frame answers in microseconds.
    let started = Instant::now();
    for _ in 0..20 {
        client.resync().unwrap();
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "20 resyncs took {took:?}"
    );

    // With nobody connected the control thread sits in a blocking
    // accept(); shutdown wakes it instead of waiting for a client.
    drop(client);
    let started = Instant::now();
    serving.shutdown().unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
}

/// Regression: the control plane served connections one at a time, and a
/// connection stays "being served" for as long as its peer keeps it open —
/// so one client that connected and then said nothing (or whose half of the
/// connection died unnoticed) made every other client's `subscribe` time
/// out after 2 s, and with it every `NetClient` recovery round.
#[test]
fn a_silent_control_connection_delays_nobody_else() {
    let station = station();
    let directory = station.network_directory();
    let serving = station
        .serve_network_with(
            ManualClock::new(),
            RuntimeConfig::default(),
            NetConfig::default().with_control_plane(),
        )
        .unwrap();
    let control = serving.control_addr().unwrap();

    // Accepted first, never speaks, never closes.
    let silent = std::net::TcpStream::connect(control).unwrap();

    let mut client = ControlClient::connect(control).unwrap();
    let started = Instant::now();
    let info = client.subscribe(FileId(1)).unwrap();
    let took = started.elapsed();
    assert_eq!(info, directory[&1]);
    assert!(took < Duration::from_millis(150), "subscribe took {took:?}");
    let started = Instant::now();
    client.resync().unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(150), "resync took {took:?}");

    // Both connections are still open: whoever serves them notices `stop`.
    let started = Instant::now();
    serving.shutdown().unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    drop((silent, client));
}

/// Regression: a swap requested through the bare runtime handle — a
/// scheduled one, or a blocking `runtime().swap_at` — used to leave the
/// control plane answering `Subscribe` with the pre-swap epoch, `(m, n)`
/// and commitment root, because only `NetServing::swap_at` pushed a fresh
/// directory.  The directory is now derived by the fan-out whenever the
/// serving loop lands a swap, whoever asked for it.
#[test]
fn swaps_through_the_bare_runtime_handle_reach_the_control_plane() {
    let file = FileId(1);
    let files = (1..=4u32).map(|i| {
        GeneralizedFileSpec::new(FileId(i), 1, vec![10 + 2 * i, 14 + 2 * i]).expect("feasible spec")
    });
    let station = Broadcast::builder()
        .files(files)
        .channels(2)
        .authenticated(true)
        .build()
        .unwrap();
    // The clock never advances: swaps planned for slot 0 are already due
    // and apply at the parked serving cursor.
    let serving = station
        .serve_network_with(
            ManualClock::new(),
            RuntimeConfig::default(),
            NetConfig::default().with_control_plane(),
        )
        .unwrap();
    let mut client = ControlClient::connect(serving.control_addr().unwrap()).unwrap();
    let mut follows = |serving: &NetServing, epoch: u64| {
        let air = serving.runtime().snapshot().unwrap();
        let info = client.subscribe(file).unwrap();
        assert_eq!(info.epoch, epoch, "the ack must carry the post-swap epoch");
        assert!(info.commitment_root.is_some());
        assert_eq!(info.commitment_root, air.commitment_root_of(file));
        assert_eq!(info, air.network_directory()[&file.0]);
        info
    };
    let initial = follows(&serving, 0);

    // Input 1: a scheduled swap.  A schedule carries specifications, not
    // payloads, so it re-disperses the file by declaring one more fault
    // level (n grows by one, the root changes).
    let mut specs = serving.runtime().snapshot().unwrap().specs().to_vec();
    specs[0] = GeneralizedFileSpec::new(file, 1, vec![12, 16, 20]).unwrap();
    let widened = ModeSpec::new("widened").files(specs);
    let schedule = ModeSchedule::new().at(0, widened, SwapPolicy::Immediate);
    let outcomes = serving.runtime().run_schedule(schedule).join();
    assert!(outcomes[0].applied(), "scheduled swap: {:?}", outcomes[0]);
    let widened = follows(&serving, 1);
    assert_eq!(widened.n, initial.n + 1);
    assert_ne!(widened.commitment_root, initial.commitment_root);

    // Input 2: one file's bytes refreshed through `runtime().swap_at`.
    let air = serving.runtime().snapshot().unwrap();
    let fresh = vec![0xA5u8; air.files().get(file).unwrap().total_bytes()];
    let same = ModeSpec::new("refreshed").files(air.specs().to_vec());
    let prepared = air
        .prepare_mode_with_contents(&same, BTreeMap::from([(file, fresh)]))
        .unwrap();
    serving
        .runtime()
        .swap_at(prepared, 0, SwapPolicy::Immediate)
        .unwrap();
    let refreshed = follows(&serving, 2);
    assert_eq!((refreshed.m, refreshed.n), (widened.m, widened.n));
    assert_ne!(refreshed.commitment_root, widened.commitment_root);
    serving.shutdown().unwrap();
}

/// A 6 MiB block encodes to a frame of more fragments than the wire allows
/// at the default MTU.  A station serving one is refused before its serving
/// thread starts, and so is an MTU with no room for a fragment.  A block
/// that large swapped in later is dropped lane by lane, counted once per
/// peer as a send error, and the serving thread goes on serving the rest.
#[test]
fn blocks_the_wire_cannot_carry_are_refused_up_front_and_dropped_after_a_swap() {
    let oversize = GeneralizedFileSpec::new(FileId(1), 1, vec![10, 14])
        .unwrap()
        .with_block_bytes(6 << 20);
    let refused = Broadcast::builder()
        .file(oversize)
        .build()
        .unwrap()
        .serve_network_with(
            ManualClock::new(),
            RuntimeConfig::default(),
            NetConfig::default(),
        );
    match refused {
        Err(Error::Net(message)) => assert!(
            message.contains("cannot cross the wire at mtu 1400"),
            "{message}"
        ),
        other => panic!("a 6 MiB block must be refused, got {:?}", other.err()),
    }
    let tiny = NetConfig {
        mtu: 26,
        ..NetConfig::default()
    };
    match NetServer::bind(tiny.clone(), rtbdisk::Telemetry::new()) {
        Err(NetError::FrameTooLarge { mtu: 26, .. }) => {}
        other => panic!("an mtu of 26 must be refused, got {:?}", other.err()),
    }
    assert!(matches!(
        station().serve_network_with(ManualClock::new(), RuntimeConfig::default(), tiny),
        Err(Error::Net(_))
    ));

    let clock = ManualClock::new();
    let serving = station()
        .serve_network_with(
            clock.clone(),
            RuntimeConfig::default(),
            NetConfig::default().with_control_plane(),
        )
        .unwrap();
    // A peer that never leaves, so every lane of every slot is published.
    let peer = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    peer.send_to(
        &encode(&Frame::Control(ControlFrame::Join)),
        serving.data_addr(),
    )
    .unwrap();
    let recovery = RecoveryConfig::default().with_control(serving.control_addr().unwrap());
    let client = NetClient::join_with(serving.data_addr(), FileId(1), recovery).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while serving.net_stats().joins < 2 {
        assert!(Instant::now() < deadline, "both joins must land");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut specs = serving.runtime().snapshot().unwrap().specs().to_vec();
    specs[1] = specs[1].clone().with_block_bytes(6 << 20);
    let schedule = ModeSchedule::new().at(
        0,
        ModeSpec::new("oversize").files(specs),
        SwapPolicy::Immediate,
    );
    let outcomes = serving.runtime().run_schedule(schedule).join();
    assert!(outcomes[0].applied(), "{:?}", outcomes[0]);
    let expected = expected_bytes(&serving.runtime().snapshot().unwrap(), FileId(1));

    let retrieval = std::thread::spawn(move || client.retrieve(Duration::from_secs(30)));
    advance_until(&clock, || {
        retrieval.is_finished() && serving.net_stats().send_errors > 0
    });
    let outcome = retrieval
        .join()
        .expect("client thread does not panic")
        .expect("the untouched file is still served");
    assert_eq!(outcome.data, expected);
    assert!(
        serving.runtime().stats().is_ok(),
        "the serving thread lives"
    );
    serving
        .shutdown()
        .expect("the serving thread shuts down cleanly");
}
