//! Loopback network-serving throughput — the wire-transport entry of the
//! repo's recorded perf trajectory.
//!
//! For each client-fleet size this puts a station on the wire
//! (`Station::serve_network_with`) under a `ManualClock` released in one
//! large batch — the server free-runs as fast as the machine allows — with
//! the fleet joined over loopback UDP and draining its sockets on threads
//! of their own.  Measured per combination: slots transmitted per
//! wall-clock second, and megabytes actually *received* across the fleet
//! per second (the broadcast medium's delivered bandwidth; datagrams the
//! loopback or the receive buffers drop are loss, exactly the model).
//! `experiments net_perf` serialises the result to `BENCH_net.json`, which
//! the CI perf-regression gate compares against its committed baseline.

use rtbdisk::bnet::wire::{decode, encode, ControlFrame, Frame, Packet};
use rtbdisk::{Broadcast, FileId, GeneralizedFileSpec, ManualClock, RuntimeConfig, Station};
use serde::Serialize;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The client-fleet sizes of the recorded trajectory.
pub const CLIENT_COUNTS: [usize; 3] = [1, 8, 64];

/// Best-of batches per fleet size (min-time estimator, like the other perf
/// figures: on a noisy host the mean records the scheduler).
const BATCHES: usize = 3;

/// Slots released per batch.
const SLOTS_PER_BATCH: usize = 2048;

/// Throughput of one fleet size.
#[derive(Debug, Clone, Serialize)]
pub struct NetPerfRow {
    /// Joined loopback UDP clients.
    pub clients: usize,
    /// Slots the server transmitted during the batch.
    pub slots_served: u64,
    /// Datagrams handed to the send socket.
    pub datagrams_sent: u64,
    /// Sends the socket refused (loss, by design).
    pub send_errors: u64,
    /// Slots transmitted per wall-clock second.
    pub slots_per_s: f64,
    /// Megabytes received across the whole fleet per wall-clock second.
    pub delivered_mb_s: f64,
}

/// The full `net_perf` measurement.
#[derive(Debug, Clone, Serialize)]
pub struct NetPerfResult {
    /// One row per fleet size.
    pub rows: Vec<NetPerfRow>,
}

fn station() -> Station {
    // Same comfortably feasible shape as `runtime_perf`: two files per
    // channel, so the design step never dominates the measurement.
    let files = (1..=4u32)
        .map(|i| GeneralizedFileSpec::new(FileId(i), 1, vec![10 + 2 * i, 14 + 2 * i]).unwrap());
    // Served authenticated: every SLOT frame is wire v2 and carries its
    // Merkle inclusion proof, so the recorded trajectory pins the
    // proof-attachment and extra-wire-byte cost of authenticated
    // broadcast, not just the plain v1 fan-out.
    Broadcast::builder()
        .files(files)
        .channels(2)
        .authenticated(true)
        .build()
        .expect("the measurement specs are feasible")
}

/// A draining loopback client: joins the station, reads datagrams until
/// stopped, reports bytes received.
fn spawn_reader(
    server: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("loopback bind");
        socket
            .set_read_timeout(Some(Duration::from_millis(10)))
            .expect("timeout is settable");
        socket
            .send_to(&encode(&Frame::Control(ControlFrame::Join)), server)
            .expect("join datagram sends");
        let mut buf = vec![0u8; 65_536];
        let mut received = 0u64;
        let mut joined = false;
        let mut last_join = Instant::now();
        while !stop.load(Ordering::Relaxed) {
            match socket.recv_from(&mut buf) {
                Ok((len, _)) => {
                    if !joined {
                        // The join ack (or any traffic) confirms membership.
                        joined = matches!(
                            decode(&buf[..len]),
                            Ok(Packet::Frame(Frame::Control(ControlFrame::Resync { .. })))
                                | Ok(Packet::Frame(Frame::Slot(_)))
                        );
                    }
                    received += len as u64;
                }
                Err(_) => {
                    if !joined && last_join.elapsed() > Duration::from_millis(50) {
                        let _ =
                            socket.send_to(&encode(&Frame::Control(ControlFrame::Join)), server);
                        last_join = Instant::now();
                    }
                }
            }
        }
        received
    })
}

fn measure_once(clients: usize) -> NetPerfRow {
    let clock = ManualClock::new();
    let serving = station()
        .serve_network_with(
            clock.clone(),
            RuntimeConfig::default(),
            rtbdisk::NetConfig::default(),
        )
        .expect("loopback serving binds");
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..clients)
        .map(|_| spawn_reader(serving.data_addr(), Arc::clone(&stop)))
        .collect();
    // Wait until the whole fleet is in the fan-out set before starting the
    // clock — the measurement is fan-out throughput, not join latency.
    let mut budget = 200_000i64;
    while serving.net_stats().peers < clients {
        std::thread::sleep(Duration::from_micros(50));
        budget -= 1;
        assert!(budget > 0, "the fleet did not finish joining");
    }
    let start = Instant::now();
    clock.advance(SLOTS_PER_BATCH);
    let stats = loop {
        let stats = serving.runtime().stats().expect("the runtime is still up");
        if stats.slots_served >= SLOTS_PER_BATCH as u64 {
            break stats;
        }
        std::thread::sleep(Duration::from_micros(50));
        budget -= 1;
        assert!(budget > 0, "the server did not drain the released slots");
    };
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let net = serving.net_stats();
    // Give in-flight loopback datagrams a moment to land before stopping
    // the readers.
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    let received: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread exits"))
        .sum();
    serving
        .shutdown()
        .expect("network serving shuts down cleanly");
    NetPerfRow {
        clients,
        slots_served: stats.slots_served,
        datagrams_sent: net.datagrams_sent,
        send_errors: net.send_errors,
        slots_per_s: stats.slots_served as f64 / elapsed,
        delivered_mb_s: received as f64 / elapsed / 1e6,
    }
}

/// Measures every fleet size, best of `BATCHES` runs each (by slot
/// throughput).
pub fn net_perf() -> NetPerfResult {
    let rows = CLIENT_COUNTS
        .iter()
        .map(|&clients| {
            (0..BATCHES)
                .map(|_| measure_once(clients))
                .max_by(|a, b| {
                    a.slots_per_s
                        .partial_cmp(&b.slots_per_s)
                        .expect("throughput is finite")
                })
                .expect("at least one batch ran")
        })
        .collect();
    NetPerfResult { rows }
}

impl core::fmt::Display for NetPerfResult {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Loopback UDP broadcast throughput (ManualClock free-run)"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.clients.to_string(),
                    r.slots_served.to_string(),
                    r.datagrams_sent.to_string(),
                    r.send_errors.to_string(),
                    format!("{:.0}", r.slots_per_s),
                    format!("{:.1}", r.delivered_mb_s),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::render_table(
                &[
                    "clients",
                    "slots",
                    "datagrams",
                    "send_errs",
                    "slots/s",
                    "delivered MB/s"
                ],
                &rows,
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_single_fleet_size_measures_and_serialises() {
        let row = measure_once(2);
        assert_eq!(row.clients, 2);
        assert!(row.slots_per_s > 0.0);
        assert!(row.datagrams_sent > 0);
        assert!(row.delivered_mb_s > 0.0, "the fleet received nothing");
        let json = serde_json::to_string(&NetPerfResult { rows: vec![row] }).unwrap();
        assert!(json.contains("delivered_mb_s"));
        assert!(json.contains("slots_per_s"));
    }
}
