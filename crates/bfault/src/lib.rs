//! `bfault` — deterministic network fault injection for broadcast-disk
//! serving.
//!
//! The loopback path the rest of the workspace tests on never loses a
//! datagram; the paper's whole premise is that the medium *does*.  This
//! crate makes loss scriptable and reproducible:
//!
//! * [`Impairer`] — the pure, socket-free impairment core.  Seeded with a
//!   [`FaultPlan`]'s rates it maps a sequence of datagrams to the sequence
//!   that would survive the impaired medium: drops, duplicates, one-packet
//!   reorders and byte corruption, all drawn from a deterministic
//!   generator.  The same seed over the same input always produces the
//!   same output — which is what lets a property test assert *identical*
//!   [`bnet::ClientStats`] across runs.
//! * [`ImpairedLink`] — a real-UDP relay wrapping two `Impairer`s (one per
//!   direction).  Clients talk to [`ImpairedLink::client_addr`] instead of
//!   the station; the relay forwards each datagram through the plan, keeps
//!   one upstream socket per client flow (so the station sees distinct
//!   peers), tracks the broadcast slot counter by decoding passing slot
//!   frames, and scripts the two faults rates cannot express: *partition
//!   windows* (black-hole both directions while the observed slot is in
//!   `[from, to)`) and a *server-restart event* (wipe the station's
//!   membership table by sending `Leave` for every flow at a given slot).
//!
//! The TCP control plane is deliberately *not* relayed: it models the
//! reliable out-of-band channel a recovering client falls back to, which
//! is exactly the recovery path `bnet::NetClient` exercises under a plan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bnet::wire::{decode, encode, ControlFrame, Frame, Packet, SlotFrame};
use bytes::Bytes;
use ida::DispersedBlock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-direction impairment rates.  All probabilities are per datagram in
/// `[0, 1]`; `delay` is a fixed extra latency applied by the relay (the
/// socket-free [`Impairer`] ignores it — it has no clock).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Impairments {
    /// Probability a datagram is dropped outright.
    pub drop: f64,
    /// Probability a surviving datagram is delivered twice.
    pub duplicate: f64,
    /// Probability a surviving datagram is held back and delivered after
    /// the next surviving datagram (a one-packet reorder).
    pub reorder: f64,
    /// Probability one random bit of a surviving datagram is flipped.
    pub corrupt: f64,
    /// Probability a surviving slot-frame datagram has one payload byte
    /// mutated *after* the packet checksum is recomputed — Byzantine
    /// corruption the CRC cannot catch: the packet decodes as a valid
    /// frame carrying wrong block bytes.  Only Merkle verification
    /// (`Broadcast::builder().authenticated(true)`) turns such a block
    /// into an erasure; an unauthenticated client feeds it straight into
    /// reconstruction.  Non-slot and fragmented datagrams pass untouched.
    pub tamper: f64,
    /// Fixed extra latency the relay adds to every surviving datagram.
    pub delay: Duration,
}

impl Impairments {
    /// A lossless direction (every rate zero).
    pub fn none() -> Self {
        Impairments::default()
    }

    /// Uniform loss: `drop` probability, nothing else.
    pub fn loss(drop: f64) -> Self {
        Impairments {
            drop,
            ..Impairments::default()
        }
    }

    /// Byzantine corruption only: `tamper` probability, nothing else.
    pub fn tamper(tamper: f64) -> Self {
        Impairments {
            tamper,
            ..Impairments::default()
        }
    }
}

/// A scripted black-hole: both directions are dropped while the observed
/// broadcast slot is in `[from_slot, to_slot)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PartitionWindow {
    /// First black-holed slot.
    pub from_slot: u64,
    /// One past the last black-holed slot.
    pub to_slot: u64,
}

/// A complete, seeded description of what the medium does to this link.
///
/// The same plan over the same traffic is byte-for-byte reproducible: the
/// per-direction [`Impairer`]s draw every decision from a generator seeded
/// by [`FaultPlan::seed`], and the scripted events key off the broadcast
/// slot counter, not the wall clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic impairment decisions.
    pub seed: u64,
    /// Station → client impairments.
    pub down: Impairments,
    /// Client → station impairments.
    pub up: Impairments,
    /// Scripted partition windows, in slots.
    pub(crate) partitions: Vec<PartitionWindow>,
    /// When set, the relay wipes the station's membership table (sends
    /// `Leave` for every client flow) once the observed slot reaches this
    /// value — the moral equivalent of a server restart.
    pub server_restart_at: Option<u64>,
}

/// Decorrelates the two directions' generators without a second seed.
const UP_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Decorrelates the tamper decision stream from the legacy drop /
/// corrupt / duplicate / reorder stream, so plans recorded before the
/// Byzantine row keep impairing byte-identically under the same seed.
const TAMPER_SEED_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

impl FaultPlan {
    /// A plan with the given seed and no impairments — add them with the
    /// builder methods.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the station → client impairments.
    pub fn down(mut self, down: Impairments) -> Self {
        self.down = down;
        self
    }

    /// Uniform station → client loss.
    pub fn down_loss(mut self, drop: f64) -> Self {
        self.down.drop = drop;
        self
    }

    /// Station → client Byzantine corruption: slot-frame payloads mutated
    /// after the checksum recompute (see [`Impairments::tamper`]).
    pub fn down_tamper(mut self, tamper: f64) -> Self {
        self.down.tamper = tamper;
        self
    }

    /// Adds a partition window black-holing slots `[from_slot, to_slot)`.
    pub fn partition(mut self, from_slot: u64, to_slot: u64) -> Self {
        self.partitions.push(PartitionWindow { from_slot, to_slot });
        self
    }

    /// Scripts the membership-wipe event at `slot`.
    pub fn restart_server_at(mut self, slot: u64) -> Self {
        self.server_restart_at = Some(slot);
        self
    }

    /// Is `slot` inside a scripted partition window?
    pub(crate) fn blackholed(&self, slot: u64) -> bool {
        self.partitions
            .iter()
            .any(|w| slot >= w.from_slot && slot < w.to_slot)
    }

    /// The station → client impairment core this plan seeds.
    pub fn down_impairer(&self) -> Impairer {
        Impairer::new(self.down.clone(), self.seed)
    }

    /// The client → station impairment core this plan seeds.
    pub(crate) fn up_impairer(&self) -> Impairer {
        Impairer::new(self.up.clone(), self.seed ^ UP_SEED_SALT)
    }
}

/// What one [`Impairer`] (or one relay direction) did to its traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImpairStats {
    /// Datagrams offered to the direction.
    pub offered: u64,
    /// Datagrams emitted (duplicates included).
    pub forwarded: u64,
    /// Datagrams dropped by the loss rate.
    pub dropped: u64,
    /// Extra copies emitted by the duplicate rate.
    pub duplicated: u64,
    /// Datagrams held back one packet by the reorder rate.
    pub reordered: u64,
    /// Datagrams with a bit flipped by the corruption rate.
    pub corrupted: u64,
    /// Slot-frame datagrams Byzantine-mutated (payload changed, checksum
    /// recomputed) by the tamper rate.
    pub tampered: u64,
}

/// The pure impairment core: a deterministic function from a datagram
/// sequence (plus a seed) to the impaired sequence.
///
/// Each offered datagram draws exactly four decisions — drop, corrupt,
/// duplicate, reorder, in that fixed order — so the decision stream
/// depends only on the seed and the *count* of datagrams offered, never on
/// their contents or on which branches earlier datagrams took.
pub struct Impairer {
    rates: Impairments,
    rng: StdRng,
    /// Tamper decisions draw from their own salted generator: adding the
    /// Byzantine row must not shift the legacy decision stream.
    tamper_rng: StdRng,
    held: Option<Vec<u8>>,
    stats: ImpairStats,
}

impl Impairer {
    /// An impairer applying `rates`, drawing from `seed`.
    pub fn new(rates: Impairments, seed: u64) -> Self {
        Impairer {
            rates,
            rng: StdRng::seed_from_u64(seed),
            tamper_rng: StdRng::seed_from_u64(seed ^ TAMPER_SEED_SALT),
            held: None,
            stats: ImpairStats::default(),
        }
    }

    /// Offers one datagram; returns the datagrams the medium delivers
    /// *now*, in order (0 to 3 of them: the survivor, an optional
    /// duplicate, and any previously held-back datagram).
    pub fn apply(&mut self, datagram: &[u8]) -> Vec<Vec<u8>> {
        self.stats.offered += 1;
        // Fixed draw order, drawn unconditionally: determinism must not
        // depend on which branches earlier packets took.
        let drop = self.rng.gen_bool(self.rates.drop);
        let corrupt = self.rng.gen_bool(self.rates.corrupt);
        let byte = self.rng.gen_range(0..datagram.len().max(1));
        let bit = self.rng.gen_range(0..8u32);
        let duplicate = self.rng.gen_bool(self.rates.duplicate);
        let reorder = self.rng.gen_bool(self.rates.reorder);
        let tamper = self.tamper_rng.gen_bool(self.rates.tamper);
        let tamper_byte: u32 = self.tamper_rng.gen();
        let tamper_bit = self.tamper_rng.gen_range(0..8u32);

        let mut out = Vec::new();
        if drop {
            self.stats.dropped += 1;
            return out;
        }
        let mut bytes = datagram.to_vec();
        if corrupt && !bytes.is_empty() {
            bytes[byte] ^= 1 << bit;
            self.stats.corrupted += 1;
        }
        if tamper {
            if let Some(resealed) = reseal_tampered(&bytes, tamper_byte, tamper_bit) {
                bytes = resealed;
                self.stats.tampered += 1;
            }
        }
        if reorder && self.held.is_none() {
            // Held back: delivered after the next surviving datagram.
            self.stats.reordered += 1;
            self.held = Some(bytes);
            return out;
        }
        self.stats.forwarded += 1;
        if duplicate {
            self.stats.duplicated += 1;
            self.stats.forwarded += 1;
            out.push(bytes.clone());
        }
        out.push(bytes);
        if let Some(held) = self.held.take() {
            self.stats.forwarded += 1;
            out.push(held);
        }
        out
    }

    /// Releases a held-back datagram at end of stream, if any.
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        let held = self.held.take();
        if held.is_some() {
            self.stats.forwarded += 1;
        }
        held
    }

    /// What this impairer did so far.
    pub fn stats(&self) -> ImpairStats {
        self.stats
    }
}

/// The Byzantine mutation: decode the datagram, flip one bit of the slot
/// frame's block payload, re-encode — which recomputes the trailing CRC,
/// so the result is a perfectly valid packet carrying wrong bytes.  The
/// block's inclusion proof (if any) is kept as-is: it committed to the
/// *original* payload, so an authenticated client's verify rejects the
/// block.  Returns `None` for anything that is not a whole slot frame
/// with a non-empty payload (control frames, fragments, junk).
fn reseal_tampered(datagram: &[u8], byte_pick: u32, bit_pick: u32) -> Option<Vec<u8>> {
    let Ok(Packet::Frame(Frame::Slot(sf))) = decode(datagram) else {
        return None;
    };
    if sf.block.is_empty() {
        return None;
    }
    let mut payload = sf.block.payload().to_vec();
    let at = byte_pick as usize % payload.len();
    payload[at] ^= 1 << bit_pick;
    let mut block = DispersedBlock::new(*sf.block.header(), Bytes::from(payload));
    if let Some(proof) = sf.block.proof() {
        block = block.with_proof(Arc::clone(proof));
    }
    Some(encode(&Frame::Slot(SlotFrame { block, ..sf })))
}

/// Counters of a running [`ImpairedLink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Station → client impairment counters.
    pub down: ImpairStats,
    /// Client → station impairment counters.
    pub up: ImpairStats,
    /// Datagrams black-holed by partition windows (both directions).
    pub blackholed: u64,
    /// Scripted membership wipes fired.
    pub restarts: u64,
    /// Highest broadcast slot the relay has observed on the wire.
    pub observed_slot: u64,
}

/// Where a relayed datagram is headed.
enum Route {
    /// Upstream, out of the flow socket belonging to `client`.
    ToServer { client: SocketAddr, bytes: Vec<u8> },
    /// Downstream, from the client-facing socket to `client`.
    ToClient { client: SocketAddr, bytes: Vec<u8> },
}

/// A seeded, deterministic in-process UDP impairment relay.
///
/// Sits between a station's data socket and its clients: clients `Join`
/// and listen on [`ImpairedLink::client_addr`], the relay applies the
/// [`FaultPlan`] to every datagram in both directions.  One upstream
/// socket is kept per client flow, so the station's membership table sees
/// each client as a distinct peer and fan-out traffic routes back to the
/// right one.
pub struct ImpairedLink {
    client_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<Mutex<LinkStats>>,
    thread: Option<JoinHandle<()>>,
}

impl ImpairedLink {
    /// Spawns the relay in front of the station's UDP data address.
    pub fn spawn(server: SocketAddr, plan: FaultPlan) -> io::Result<Self> {
        let front = UdpSocket::bind("127.0.0.1:0")?;
        front.set_nonblocking(true)?;
        let client_addr = front.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(Mutex::new(LinkStats::default()));
        let thread = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || relay_loop(&front, server, &plan, &stop, &stats))
        };
        Ok(ImpairedLink {
            client_addr,
            stop,
            stats,
            thread: Some(thread),
        })
    }

    /// The address clients use in place of the station's data address.
    pub fn client_addr(&self) -> SocketAddr {
        self.client_addr
    }

    /// A snapshot of the relay's counters.
    pub fn stats(&self) -> LinkStats {
        *self.stats.lock().expect("link stats lock")
    }

    /// Stops the relay thread and waits for it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ImpairedLink {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn relay_loop(
    front: &UdpSocket,
    server: SocketAddr,
    plan: &FaultPlan,
    stop: &AtomicBool,
    stats: &Mutex<LinkStats>,
) {
    let mut up = plan.up_impairer();
    let mut down = plan.down_impairer();
    let mut flows: HashMap<SocketAddr, UdpSocket> = HashMap::new();
    let mut delayed: VecDeque<(Instant, Route)> = VecDeque::new();
    let mut restarted = false;
    let mut buf = vec![0u8; 65_536];

    while !stop.load(Ordering::Relaxed) {
        let mut active = false;
        let observed = stats.lock().expect("link stats lock").observed_slot;

        // Client → station.
        while let Ok((len, from)) = front.recv_from(&mut buf) {
            active = true;
            if let Entry::Vacant(flow) = flows.entry(from) {
                let Ok(socket) = UdpSocket::bind("127.0.0.1:0") else {
                    continue;
                };
                if socket.set_nonblocking(true).is_err() {
                    continue;
                }
                flow.insert(socket);
            }
            if plan.blackholed(observed) {
                stats.lock().expect("link stats lock").blackholed += 1;
                // The impairer still draws for the datagram so the
                // decision stream stays aligned with the offered count.
                let _ = up.apply(&buf[..len]);
                continue;
            }
            for bytes in up.apply(&buf[..len]) {
                dispatch(
                    Route::ToServer {
                        client: from,
                        bytes,
                    },
                    plan.up.delay,
                    front,
                    &flows,
                    server,
                    &mut delayed,
                );
            }
        }

        // Station → client, one drain per flow.
        let clients: Vec<SocketAddr> = flows.keys().copied().collect();
        for client in clients {
            while let Some(socket) = flows.get(&client) {
                let Ok((len, _)) = socket.recv_from(&mut buf) else {
                    break;
                };
                active = true;
                // Track the broadcast slot counter from passing slot
                // frames — partitions and the restart event are scripted
                // in slots, the broadcast medium's own time base.
                if let Ok(Packet::Frame(Frame::Slot(sf))) = decode(&buf[..len]) {
                    let mut guard = stats.lock().expect("link stats lock");
                    guard.observed_slot = guard.observed_slot.max(sf.slot);
                }
                let observed = stats.lock().expect("link stats lock").observed_slot;
                if let Some(at) = plan.server_restart_at {
                    if !restarted && observed >= at {
                        restarted = true;
                        stats.lock().expect("link stats lock").restarts += 1;
                        let leave = encode(&Frame::Control(ControlFrame::Leave));
                        for socket in flows.values() {
                            let _ = socket.send_to(&leave, server);
                        }
                    }
                }
                if plan.blackholed(observed) {
                    stats.lock().expect("link stats lock").blackholed += 1;
                    let _ = down.apply(&buf[..len]);
                    continue;
                }
                for bytes in down.apply(&buf[..len]) {
                    dispatch(
                        Route::ToClient { client, bytes },
                        plan.down.delay,
                        front,
                        &flows,
                        server,
                        &mut delayed,
                    );
                }
            }
        }

        // Release delayed datagrams that have come due (delays are
        // constant per direction, so the queue is due-ordered enough).
        let now = Instant::now();
        while delayed.front().is_some_and(|(due, _)| *due <= now) {
            let (_, route) = delayed.pop_front().expect("checked front");
            active = true;
            send_route(route, front, &flows, server);
        }

        {
            let mut guard = stats.lock().expect("link stats lock");
            guard.up = up.stats();
            guard.down = down.stats();
        }
        if !active {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

fn dispatch(
    route: Route,
    delay: Duration,
    front: &UdpSocket,
    flows: &HashMap<SocketAddr, UdpSocket>,
    server: SocketAddr,
    delayed: &mut VecDeque<(Instant, Route)>,
) {
    if delay.is_zero() {
        send_route(route, front, flows, server);
    } else {
        delayed.push_back((Instant::now() + delay, route));
    }
}

fn send_route(
    route: Route,
    front: &UdpSocket,
    flows: &HashMap<SocketAddr, UdpSocket>,
    server: SocketAddr,
) {
    match route {
        Route::ToServer { client, bytes } => {
            if let Some(socket) = flows.get(&client) {
                let _ = socket.send_to(&bytes, server);
            }
        }
        Route::ToClient { client, bytes } => {
            let _ = front.send_to(&bytes, client);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbered(i: u8) -> Vec<u8> {
        vec![i; 8]
    }

    #[test]
    fn same_seed_same_input_same_output() {
        let rates = Impairments {
            drop: 0.3,
            duplicate: 0.2,
            reorder: 0.2,
            corrupt: 0.2,
            ..Impairments::default()
        };
        let run = |seed| {
            let mut imp = Impairer::new(rates.clone(), seed);
            let mut out = Vec::new();
            for i in 0..200u8 {
                out.extend(imp.apply(&numbered(i)));
            }
            out.extend(imp.flush());
            (out, imp.stats())
        };
        let (a, sa) = run(7);
        let (b, sb) = run(7);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = run(8);
        assert_ne!(a, c, "a different seed must impair differently");
    }

    #[test]
    fn zero_rates_pass_traffic_through_untouched() {
        let mut imp = Impairer::new(Impairments::none(), 1);
        for i in 0..50u8 {
            assert_eq!(imp.apply(&numbered(i)), vec![numbered(i)]);
        }
        assert_eq!(imp.flush(), None);
        let stats = imp.stats();
        assert_eq!(stats.offered, 50);
        assert_eq!(stats.forwarded, 50);
        assert_eq!(stats.dropped + stats.corrupted + stats.duplicated, 0);
    }

    #[test]
    fn rates_are_roughly_honoured_over_many_datagrams() {
        let mut imp = Impairer::new(Impairments::loss(0.2), 42);
        for i in 0..10_000u64 {
            imp.apply(&i.to_le_bytes());
        }
        let stats = imp.stats();
        let rate = stats.dropped as f64 / stats.offered as f64;
        assert!((0.15..0.25).contains(&rate), "drop rate {rate} off target");
        assert_eq!(stats.offered, stats.forwarded + stats.dropped);
    }

    #[test]
    fn reorder_holds_one_packet_back() {
        let rates = Impairments {
            reorder: 1.0,
            ..Impairments::none()
        };
        let mut imp = Impairer::new(rates, 3);
        assert_eq!(imp.apply(&numbered(0)), Vec::<Vec<u8>>::new());
        // The second packet cannot be held too (one-deep buffer): it is
        // emitted, followed by the held first packet.
        assert_eq!(imp.apply(&numbered(1)), vec![numbered(1), numbered(0)]);
        assert_eq!(imp.apply(&numbered(2)), Vec::<Vec<u8>>::new());
        assert_eq!(imp.flush(), Some(numbered(2)));
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let rates = Impairments {
            corrupt: 1.0,
            ..Impairments::none()
        };
        let mut imp = Impairer::new(rates, 5);
        let out = imp.apply(&numbered(0));
        assert_eq!(out.len(), 1);
        let differing: u32 = out[0]
            .iter()
            .zip(numbered(0))
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(differing, 1);
    }

    #[test]
    fn tamper_reseals_a_valid_packet_with_wrong_payload_bytes() {
        // Byzantine row: the mutated datagram still decodes (CRC was
        // recomputed), the header survives, the payload differs, and the
        // original inclusion proof rides along — so only Merkle
        // verification can tell.
        let dispersal = ida::Dispersal::authenticated(3, 5).unwrap();
        let file = dispersal
            .disperse(ida::FileId(7), &vec![0x5Au8; 3 * 512])
            .unwrap();
        let original = file.blocks()[1].clone();
        let frame = Frame::Slot(SlotFrame {
            epoch: 4,
            channel: 0,
            slot: 99,
            block: original.clone(),
        });
        let datagram = encode(&frame);

        let mut imp = Impairer::new(Impairments::tamper(1.0), 11);
        let out = imp.apply(&datagram);
        assert_eq!(out.len(), 1);
        assert_eq!(imp.stats().tampered, 1);
        let Ok(Packet::Frame(Frame::Slot(sf))) = decode(&out[0]) else {
            panic!("tampered datagram must still decode as a slot frame");
        };
        assert_eq!(sf.block.header(), original.header());
        assert_ne!(sf.block.payload(), original.payload());
        let root = file.commitment_root().unwrap();
        assert!(dispersal.verify_block(&root, &original));
        assert!(
            !dispersal.verify_block(&root, &sf.block),
            "the kept proof committed to the original payload"
        );
    }

    #[test]
    fn tamper_leaves_non_slot_datagrams_and_the_legacy_stream_alone() {
        // Control frames and junk pass through unmutated even at rate 1.
        let control = encode(&Frame::Control(ControlFrame::Leave));
        let mut imp = Impairer::new(Impairments::tamper(1.0), 11);
        assert_eq!(imp.apply(&control), vec![control.clone()]);
        assert_eq!(imp.apply(b"not a packet"), vec![b"not a packet".to_vec()]);
        assert_eq!(imp.stats().tampered, 0);

        // The tamper rate draws from its own salted generator: a legacy
        // plan impairs byte-identically whether the field exists or not.
        let legacy = Impairments {
            drop: 0.3,
            duplicate: 0.2,
            reorder: 0.2,
            corrupt: 0.2,
            ..Impairments::default()
        };
        let with_tamper = Impairments {
            tamper: 0.9,
            ..legacy.clone()
        };
        let run = |rates: Impairments| {
            let mut imp = Impairer::new(rates, 7);
            let mut dropped = Vec::new();
            for i in 0..200u8 {
                imp.apply(&numbered(i));
                dropped.push(imp.stats().dropped);
            }
            dropped
        };
        assert_eq!(run(legacy), run(with_tamper));
    }

    #[test]
    fn partition_windows_cover_half_open_ranges() {
        let plan = FaultPlan::seeded(1).partition(10, 20).partition(30, 31);
        assert!(!plan.blackholed(9));
        assert!(plan.blackholed(10));
        assert!(plan.blackholed(19));
        assert!(!plan.blackholed(20));
        assert!(plan.blackholed(30));
        assert!(!plan.blackholed(31));
    }

    #[test]
    fn lossless_relay_forwards_both_directions() {
        // A stand-in "station": echoes every received datagram back.
        let upstream = UdpSocket::bind("127.0.0.1:0").unwrap();
        upstream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let server = upstream.local_addr().unwrap();
        let link = ImpairedLink::spawn(server, FaultPlan::seeded(9)).unwrap();

        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        client.send_to(b"ping", link.client_addr()).unwrap();

        let mut buf = [0u8; 64];
        let (len, from) = upstream.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], b"ping");
        assert_ne!(from, client.local_addr().unwrap(), "flows are re-homed");
        upstream.send_to(b"pong", from).unwrap();
        let (len, _) = client.recv_from(&mut buf).unwrap();
        assert_eq!(&buf[..len], b"pong");

        // The relay syncs its counters once per loop iteration, so the
        // delivery above can race the snapshot: poll briefly.
        let deadline = Instant::now() + Duration::from_secs(2);
        let stats = loop {
            let stats = link.stats();
            if (stats.up.forwarded, stats.down.forwarded) == (1, 1) || Instant::now() >= deadline {
                break stats;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(stats.up.forwarded, 1);
        assert_eq!(stats.down.forwarded, 1);
        link.shutdown();
    }
}
