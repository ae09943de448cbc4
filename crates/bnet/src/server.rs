//! The station's network side: UDP slot fan-out plus an optional TCP
//! control plane.
//!
//! The serving thread publishes every slot once per live lane through a
//! [`UdpFanout`] (a [`SlotSink`]), which encodes each lane as one datagram —
//! fragmenting oversized blocks — and sends it to every joined peer.  Sends
//! never block and never retry: on a broadcast medium loss is normal and
//! dispersal absorbs it, so a full socket buffer or an unreachable peer is
//! an erasure at the receiver, not an error at the sender.
//!
//! A frame reaches a peer by one of two paths.  A *fragmented* frame goes
//! out as a **train**: one `sendmsg` gathering its datagrams under a
//! `UDP_SEGMENT` control message, which the kernel carries through the
//! stack as one buffer and cuts back into the same datagrams at the
//! receiving socket (a frame longer than 64 fragments or 65 507 bytes is
//! several trains, each ending on a fragment boundary).  Everything else
//! takes the **loop**, one `send_to` per datagram: single-datagram frames
//! always, and every frame from the moment the kernel answers a train
//! with "not here" (an old kernel, a device without checksum offload, an
//! `mtu` above the path's; any platform but 64-bit glibc Linux) — that
//! frame is sent by the loop and the fan-out never asks again.  The wire
//! bytes, their order per peer and the counters are the same on both
//! paths; `bnet_datagrams_sent / bnet_send_calls` says which one a
//! station is on.  Two things differ.  A train is all or nothing at the
//! sender: a full send buffer refuses every fragment of it (that many
//! `send_errors`, one `FrameDropped`) where the loop could lose some and
//! send the rest — an incomplete frame is an erasure either way.  And
//! with several peers the order on the air is peer-major, one train per
//! peer per lane.  The receiving side is unchanged: a full *receive*
//! buffer still drops silently, possibly in the middle of a train.
//!
//! Membership is datagram-based ([`ControlFrame::Join`] /
//! [`ControlFrame::Leave`] sent to the data address) so a pure-UDP client
//! needs nothing else: dispersal parameters travel in every block header.
//! The optional TCP control plane answers [`ControlFrame::Subscribe`] from
//! a directory and serves slot-counter resyncs — a reliable convenience,
//! not a requirement.  The directory is *derived*, never pushed: the
//! runtime tells the fan-out whenever the bank's mode changed
//! ([`SlotSink::mode_changed`]) and the fan-out brings it up to date, so
//! every swap — scheduled, blocking, or through the bare runtime handle —
//! is on the control plane before its requester hears it landed.  It
//! answers what [`directory_of`] the bank would, but a swap rewrites only
//! the entries of the files it changed.

use crate::error::NetError;
use crate::gso;
use crate::wire::{
    decode, encode, max_frame_bytes, slot_frame_len, split, ControlFrame, Frame, MetricsFormat,
    Packet, SlotFrame, SubscriptionInfo, MIN_SLOT_FRAME,
};
use bdisk::{BroadcastServer, EpochBank};
use bobs::{Counter, Event, Gauge, Registry, Telemetry};
use brt::{SlotCell, SlotSink};
use ida::{DispersedFile, FileId};
use std::collections::{BTreeMap, HashSet};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How a [`NetServer`] binds and behaves.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Address of the UDP data/membership socket (`127.0.0.1:0` by
    /// default — an ephemeral loopback port).
    pub data_bind: SocketAddr,
    /// Address of the TCP control listener; `None` (the default) disables
    /// the control plane.
    pub control_bind: Option<SocketAddr>,
    /// Largest datagram the fan-out will send; larger frames fragment.
    pub mtu: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            data_bind: "127.0.0.1:0".parse().expect("valid literal"),
            control_bind: None,
            mtu: 1400,
        }
    }
}

impl NetConfig {
    /// Enables the TCP control plane on an ephemeral loopback port.
    pub fn with_control_plane(mut self) -> Self {
        self.control_bind = Some("127.0.0.1:0".parse().expect("valid literal"));
        self
    }
}

/// The control plane's view of the station: file id → where it is served.
/// On a running station it is [`directory_of`] the serving bank, brought
/// up to date by [`UdpFanout`] on every [`SlotSink::mode_changed`] — so a
/// recovering client that missed a swap resubscribes against the live
/// program, not the one it tuned to originally.
pub type Directory = BTreeMap<u32, SubscriptionInfo>;

/// The directory of `bank`'s latest mode: each routed file's channel, that
/// channel's epoch, and the `(m, n)` and commitment root its serving
/// dispersal carries.
pub fn directory_of(bank: &EpochBank) -> Directory {
    let mut directory = Directory::new();
    for (&file, &channel) in bank.routing_now() {
        let Some(dispersed) = bank.current(channel).and_then(|s| s.dispersed(file)) else {
            continue;
        };
        let epoch = bank.current_epoch_of(channel).unwrap_or(0);
        if let Some(info) = info_of(channel, epoch, dispersed) {
            directory.insert(file.0, info);
        }
    }
    directory
}

/// The subscription answer for a file served as `dispersed` on `channel`
/// under `epoch`: the `(m, n)` its blocks carry and its commitment root.
fn info_of(channel: usize, epoch: u64, dispersed: &DispersedFile) -> Option<SubscriptionInfo> {
    let header = dispersed.block(0)?.header();
    let info = SubscriptionInfo::new(channel as u16, epoch, header.m, header.n);
    Some(match dispersed.commitment_root() {
        Some(root) => info.with_root(root),
        None => info,
    })
}

/// The control plane's live [`directory_of`] the serving bank, kept apart
/// so a mode change costs what it changed: each file's answer is stored
/// with its channel's epoch left out, and each channel keeps its epoch and
/// the server its files were read from.  A mode change re-reads only the
/// channels whose server changed and, on those, rewrites only the entries
/// of files whose blocks changed, that arrived or that left.
#[derive(Debug, Default)]
struct LiveDirectory {
    files: BTreeMap<u32, SubscriptionInfo>,
    channels: Vec<(u64, Option<Arc<BroadcastServer>>)>,
}

impl LiveDirectory {
    /// What [`directory_of`] the bank last seen answers for `file`.
    fn get(&self, file: u32) -> Option<SubscriptionInfo> {
        let info = self.files.get(&file)?;
        let (epoch, _) = self.channels.get(info.channel as usize)?;
        Some(SubscriptionInfo {
            epoch: *epoch,
            ..*info
        })
    }

    /// Catches up with `bank`'s latest mode.
    fn update(&mut self, bank: &EpochBank) {
        let lanes = bank.lane_count().max(self.channels.len());
        self.channels.resize(lanes, (0, None));
        let mut changes = Vec::new();
        for (channel, (epoch, read)) in self.channels.iter_mut().enumerate() {
            *epoch = bank.current_epoch_of(channel).unwrap_or(0);
            let server = bank.current_arc(channel);
            let same = match (&*read, &server) {
                (Some(old), Some(new)) => Arc::ptr_eq(old, new),
                (old, new) => old.is_none() && new.is_none(),
            };
            if !same {
                let old = std::mem::replace(read, server);
                let (fresh, gone) = changes_between(old.as_deref(), read.as_deref());
                changes.push((channel, fresh, gone));
            }
        }
        // Departures first, so a file that moved between two changed
        // channels ends up where it arrived.
        for (channel, _, gone) in &changes {
            for file in gone {
                let here = self.files.get(&file.0).map(|i| i.channel as usize) == Some(*channel);
                if here {
                    self.files.remove(&file.0);
                }
            }
        }
        for (channel, fresh, _) in changes {
            for dispersed in fresh {
                if let Some(info) = info_of(channel, 0, &dispersed) {
                    self.files.insert(dispersed.file().0, info);
                }
            }
        }
    }
}

/// What a channel going from serving `old` to serving `new` changes: the
/// files `new` serves with other blocks than `old` (or that `old` lacks),
/// and the files `old` carries that `new` does not.  Both are walked side
/// by side in file order; a file whose blocks are shared is neither.
fn changes_between(
    old: Option<&BroadcastServer>,
    new: Option<&BroadcastServer>,
) -> (Vec<DispersedFile>, Vec<FileId>) {
    let mut was = old
        .into_iter()
        .flat_map(BroadcastServer::dispersed_files)
        .peekable();
    let (mut fresh, mut gone) = (Vec::new(), Vec::new());
    for file in new.into_iter().flat_map(BroadcastServer::dispersed_files) {
        while let Some(left) = was.next_if(|w| w.file() < file.file()) {
            gone.push(left.file());
        }
        let kept = was.next_if(|w| w.file() == file.file());
        if kept.is_none_or(|w| w.blocks().as_ptr() != file.blocks().as_ptr()) {
            fresh.push(file.clone());
        }
    }
    gone.extend(was.map(DispersedFile::file));
    (fresh, gone)
}

/// Refuses a station whose slot frames cannot cross the wire at `mtu`:
/// the largest block any channel of `bank` serves must encode to a frame
/// the fan-out can cut into datagrams and a client can reassemble.
pub fn check_mtu(bank: &EpochBank, mtu: usize) -> Result<(), NetError> {
    let largest = (0..bank.channel_count())
        .filter_map(|channel| bank.current(channel))
        .flat_map(|server| server.dispersed_files())
        .flat_map(|dispersed| dispersed.blocks())
        .map(slot_frame_len)
        .max()
        .unwrap_or(MIN_SLOT_FRAME);
    frame_fits(largest, mtu)
}

fn frame_fits(bytes: usize, mtu: usize) -> Result<(), NetError> {
    let max = max_frame_bytes(mtu);
    if bytes > max {
        return Err(NetError::FrameTooLarge { bytes, mtu, max });
    }
    Ok(())
}

/// A snapshot of the network side's counters — a view over the station's
/// [`bobs`] registry, kept shape-compatible with earlier releases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Slot frames published (one per live lane per served slot).
    pub frames_sent: u64,
    /// Frames that needed fragmentation.
    pub frames_fragmented: u64,
    /// Datagrams handed to the socket.
    pub datagrams_sent: u64,
    /// Payload bytes handed to the socket.
    pub bytes_sent: u64,
    /// System calls that handed them over: one per `send_to`, one per
    /// train.  `datagrams_sent / send_calls` is the fragments per frame
    /// while trains run and 1 once the fan-out fell back to the loop.
    pub send_calls: u64,
    /// Datagrams the socket refused (full buffer, unreachable peer; a
    /// refused train counts every fragment it carried) — loss, by design.
    /// A frame too large for the wire at the fan-out's MTU is never cut
    /// into datagrams and counts once per peer.
    pub send_errors: u64,
    /// Join datagrams honoured (monotonic).
    pub joins: u64,
    /// Leave datagrams honoured (monotonic).
    pub leaves: u64,
    /// Peers currently in the fan-out set.
    ///
    /// This is a *transient gauge*: a client that joined and immediately
    /// left can legitimately read as `0` at any later sample, and a sample
    /// taken between a join datagram arriving and the membership thread
    /// honouring it reads the old value.  Tests and monitors that need to
    /// observe that membership churn *happened* must wait on the monotonic
    /// `joins` / `leaves` counters, never on this gauge.
    pub peers: usize,
}

/// The fan-out's registry handles, under `bnet_*` metric names.
struct NetMetrics {
    frames_sent: Counter,
    frames_fragmented: Counter,
    datagrams_sent: Counter,
    bytes_sent: Counter,
    send_calls: Counter,
    send_errors: Counter,
    joins: Counter,
    leaves: Counter,
    peers: Gauge,
}

impl NetMetrics {
    fn new(registry: &Registry) -> Self {
        NetMetrics {
            frames_sent: registry.counter("bnet_frames_sent"),
            frames_fragmented: registry.counter("bnet_frames_fragmented"),
            datagrams_sent: registry.counter("bnet_datagrams_sent"),
            bytes_sent: registry.counter("bnet_bytes_sent"),
            send_calls: registry.counter("bnet_send_calls"),
            send_errors: registry.counter("bnet_send_errors"),
            joins: registry.counter("bnet_joins"),
            leaves: registry.counter("bnet_leaves"),
            peers: registry.gauge("bnet_peers"),
        }
    }

    /// Books one send call that carried `datagrams` — a `send_to` (one) or
    /// a train (all of its segments; the call is all or nothing).  Returns
    /// whether the socket refused them.
    fn sent(&self, datagrams: usize, result: io::Result<usize>) -> bool {
        self.send_calls.inc();
        match result {
            Ok(bytes) => {
                self.datagrams_sent.add(datagrams as u64);
                self.bytes_sent.add(bytes as u64);
                false
            }
            Err(_) => {
                self.send_errors.add(datagrams as u64);
                true
            }
        }
    }
}

struct Shared {
    peers: Mutex<HashSet<SocketAddr>>,
    metrics: NetMetrics,
    telemetry: Telemetry,
    /// The next slot the serving loop will publish — what a `Resync`
    /// reports.
    next_slot: AtomicU64,
    /// The highest epoch the fan-out has published any lane under — what
    /// a `Resync` reports (not a per-channel epoch).
    current_epoch: AtomicU64,
    stop: AtomicBool,
    directory: Mutex<LiveDirectory>,
}

impl Shared {
    fn resync_frame(&self) -> ControlFrame {
        ControlFrame::Resync {
            epoch: self.current_epoch.load(Ordering::Relaxed),
            next_slot: self.next_slot.load(Ordering::Relaxed),
        }
    }
}

/// The [`SlotSink`] half of a bound network server: attach it to a `brt`
/// runtime (or drive [`UdpFanout::publish`] directly) and every served
/// slot goes out on the wire.
pub struct UdpFanout {
    socket: UdpSocket,
    shared: Arc<Shared>,
    mtu: usize,
    /// [`max_frame_bytes`] at `mtu`: a longer frame is dropped, not sent.
    max_frame: usize,
    seq: u64,
    /// Whether fragmented frames still go out as trains; cleared for good
    /// the first time the kernel says it does not do them here.
    gso: bool,
}

impl UdpFanout {
    /// Puts one frame's datagrams on the air for one peer: as trains (see
    /// [`crate::gso`]) while the frame is fragmented and the kernel takes
    /// them, one `send_to` each otherwise.  Returns whether any were
    /// refused.
    fn send_frame(&mut self, packets: &[Vec<u8>], peer: SocketAddr) -> bool {
        let metrics = &self.shared.metrics;
        let mut dropped = false;
        let mut rest = packets;
        while self.gso && rest.len() > 1 {
            let (train, after) = rest.split_at(gso::train_len(rest));
            match gso::send_train(&self.socket, train, peer) {
                // Nothing of the train went out: the loop takes it from here.
                Err(e) if gso::not_here(&e) => self.gso = false,
                result => {
                    dropped |= metrics.sent(train.len(), result);
                    rest = after;
                }
            }
        }
        for packet in rest {
            dropped |= metrics.sent(1, self.socket.send_to(packet, peer));
        }
        dropped
    }
}

impl SlotSink for UdpFanout {
    fn publish(&mut self, cell: &SlotCell) {
        let slot = cell.slot;
        // Dark lanes and idle slots carry nothing a receiver acts on.
        let live = || {
            cell.lanes.iter().enumerate().filter_map(|(channel, lane)| {
                Some((channel as u16, lane.epoch?, lane.block.as_ref()?))
            })
        };
        self.shared
            .next_slot
            .store(slot as u64 + 1, Ordering::Relaxed);
        for (_, epoch, _) in live() {
            self.shared
                .current_epoch
                .fetch_max(epoch, Ordering::Relaxed);
        }
        let peers: Vec<SocketAddr> = {
            let guard = self.shared.peers.lock().expect("peer set lock");
            guard.iter().copied().collect()
        };
        if peers.is_empty() {
            return;
        }
        for (channel, epoch, block) in live() {
            let frame = Frame::Slot(SlotFrame {
                epoch,
                channel,
                slot: slot as u64,
                block: block.clone(),
            });
            let encoded = encode(&frame);
            self.shared.metrics.frames_sent.inc();
            let mut dropped = false;
            if encoded.len() > self.max_frame {
                // A swap brought in a block the wire cannot carry: every
                // peer loses the frame, and the serving thread goes on.
                self.shared.metrics.send_errors.add(peers.len() as u64);
                dropped = true;
            } else {
                let packets = split(encoded, self.mtu, self.seq);
                if packets.len() > 1 {
                    self.seq = self.seq.wrapping_add(1);
                    self.shared.metrics.frames_fragmented.inc();
                }
                for &peer in &peers {
                    dropped |= self.send_frame(&packets, peer);
                }
            }
            self.shared.telemetry.record_event(|| Event::FrameSent {
                slot: slot as u64,
                peers: peers.len() as u64,
            });
            if dropped {
                self.shared
                    .telemetry
                    .record_event(|| Event::FrameDropped { slot: slot as u64 });
            }
        }
    }

    fn mode_changed(&mut self, bank: &EpochBank) {
        let mut directory = self.shared.directory.lock().expect("directory lock");
        directory.update(bank);
    }
}

/// The bound network server: addresses, stats, and shutdown of the
/// membership/control threads.  Dropping the handle also shuts them down.
pub struct NetHandle {
    data_addr: SocketAddr,
    control_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl NetHandle {
    /// The UDP address clients send `Join` to and receive slots from.
    pub fn data_addr(&self) -> SocketAddr {
        self.data_addr
    }

    /// The TCP control-plane address, when one was configured.
    pub fn control_addr(&self) -> Option<SocketAddr> {
        self.control_addr
    }

    /// A snapshot of the network counters (a view over the registry — see
    /// the caveat on [`NetStats::peers`]).
    pub fn stats(&self) -> NetStats {
        let m = &self.shared.metrics;
        NetStats {
            frames_sent: m.frames_sent.get(),
            frames_fragmented: m.frames_fragmented.get(),
            datagrams_sent: m.datagrams_sent.get(),
            bytes_sent: m.bytes_sent.get(),
            send_calls: m.send_calls.get(),
            send_errors: m.send_errors.get(),
            joins: m.joins.get(),
            leaves: m.leaves.get(),
            peers: self.shared.peers.lock().expect("peer set lock").len(),
        }
    }

    /// The telemetry the network side records into — the same handle the
    /// control plane's metrics opcode serves from.
    pub fn telemetry(&self) -> &Telemetry {
        &self.shared.telemetry
    }

    /// Stops the membership and control threads and waits for them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(addr) = self.control_addr {
            // The control thread blocks in `accept()`: one throw-away
            // connection wakes it to see `stop`.  Should the connect fail
            // on a full backlog, the queued connections wake it instead.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds the station's network side.
pub struct NetServer;

impl NetServer {
    /// Binds the UDP data/membership socket (and the TCP control listener
    /// when configured), spawns their service threads, and returns the
    /// fan-out sink to attach to a runtime plus the handle to manage it.
    /// The network side records into `telemetry` — hand it the runtime's
    /// handle and the control plane's metrics opcode exposes runtime and
    /// network metrics from one registry.  The control plane's directory
    /// starts empty and follows every [`SlotSink::mode_changed`].
    pub fn bind(
        config: NetConfig,
        telemetry: Telemetry,
    ) -> Result<(UdpFanout, NetHandle), NetError> {
        frame_fits(MIN_SLOT_FRAME, config.mtu)?;
        let membership = UdpSocket::bind(config.data_bind)?;
        membership.set_read_timeout(Some(Duration::from_millis(20)))?;
        let data_addr = membership.local_addr()?;
        // A separate non-blocking send socket: the serving thread must
        // never block on the medium, while the membership socket keeps its
        // blocking-with-timeout receive loop.
        let send_socket = UdpSocket::bind(SocketAddr::new(data_addr.ip(), 0))?;
        send_socket.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            peers: Mutex::new(HashSet::new()),
            metrics: NetMetrics::new(telemetry.registry()),
            telemetry,
            next_slot: AtomicU64::new(0),
            current_epoch: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            directory: Mutex::new(LiveDirectory::default()),
        });

        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                membership_loop(&membership, &shared);
            }));
        }

        let control_addr = match config.control_bind {
            Some(bind) => {
                let listener = TcpListener::bind(bind)?;
                let addr = listener.local_addr()?;
                let shared = Arc::clone(&shared);
                threads.push(std::thread::spawn(move || {
                    control_loop(&listener, &shared);
                }));
                Some(addr)
            }
            None => None,
        };

        let fanout = UdpFanout {
            socket: send_socket,
            shared: Arc::clone(&shared),
            mtu: config.mtu,
            max_frame: max_frame_bytes(config.mtu),
            seq: 0,
            gso: true,
        };
        let handle = NetHandle {
            data_addr,
            control_addr,
            shared,
            threads,
        };
        Ok((fanout, handle))
    }
}

fn membership_loop(socket: &UdpSocket, shared: &Shared) {
    let mut buf = [0u8; 2048];
    while !shared.stop.load(Ordering::Relaxed) {
        let (len, from) = match socket.recv_from(&mut buf) {
            Ok(received) => received,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => continue,
        };
        let Ok(Packet::Frame(Frame::Control(control))) = decode(&buf[..len]) else {
            continue; // not ours to worry about: the medium is lossy
        };
        match control {
            ControlFrame::Join => {
                let mut peers = shared.peers.lock().expect("peer set lock");
                if peers.len() < MAX_PEERS || peers.contains(&from) {
                    peers.insert(from);
                    shared.metrics.peers.set(peers.len() as i64);
                    shared.metrics.joins.inc();
                    drop(peers);
                    // Ack with a resync so the client can baseline its
                    // gap detector; losing this reply is harmless.
                    let _ = socket.send_to(&encode(&Frame::Control(shared.resync_frame())), from);
                }
            }
            ControlFrame::Leave => {
                let mut peers = shared.peers.lock().expect("peer set lock");
                if peers.remove(&from) {
                    shared.metrics.peers.set(peers.len() as i64);
                    shared.metrics.leaves.inc();
                }
            }
            // A resync is asked over the control plane; every join ack
            // already carries one.  Anything else gets no reply, so the
            // data socket never answers a source that has not joined.
            _ => {}
        }
    }
}

/// Most peers the fan-out set holds; further joins are ignored.
const MAX_PEERS: usize = 64;

/// Largest control frame the TCP plane will read.
const MAX_CONTROL_FRAME: usize = 64 * 1024;

/// How long the accept loop itself waits for a connection's next request
/// before moving the connection to a thread of its own.
const CONTROL_INLINE_PATIENCE: Duration = Duration::from_millis(10);

/// How often a connection's thread looks up from a quiet peer to see `stop`.
const CONTROL_IDLE_POLL: Duration = Duration::from_millis(200);

/// The accept loop blocks in `accept()`, so a connection is served the
/// moment it arrives; `NetHandle::stop_and_join` raises `stop` and connects
/// once to wake it.  A request/response exchange is over in microseconds
/// and is served right here.  A peer that goes quiet with the connection
/// open — one that says nothing, or whose half died unnoticed — is moved to
/// a thread of its own after [`CONTROL_INLINE_PATIENCE`], so it holds up
/// nobody's `Subscribe` or `Resync` but its own.  Those threads see `stop`
/// within one [`CONTROL_IDLE_POLL`] and are joined before the loop returns.
fn control_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut quiet_connections: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        quiet_connections.retain(|connection| !connection.is_finished());
        match accepted {
            Ok((stream, _)) => {
                let served =
                    serve_control_connection(stream, shared, Some(CONTROL_INLINE_PATIENCE));
                if let Ok(Some(quiet)) = served {
                    let shared = Arc::clone(shared);
                    quiet_connections.push(std::thread::spawn(move || {
                        let _ = serve_control_connection(quiet, &shared, None);
                    }));
                }
            }
            // A failing listener (descriptor exhaustion, say) must not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for connection in quiet_connections {
        let _ = connection.join();
    }
}

/// Serves `stream` until its peer closes it or sends garbage.  With a
/// `patience`, also until the peer leaves that long a silence between two
/// frames: the connection is then handed back, still open and on a frame
/// boundary, for someone with more time to serve.
fn serve_control_connection(
    mut stream: TcpStream,
    shared: &Shared,
    patience: Option<Duration>,
) -> Result<Option<TcpStream>, NetError> {
    stream.set_read_timeout(Some(patience.unwrap_or(CONTROL_IDLE_POLL)))?;
    stream.set_write_timeout(Some(Duration::from_millis(200)))?;
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            return Ok(None);
        }
        // Wait for the next frame without consuming any of it, so giving up
        // on a quiet peer never cuts a frame in two.
        match stream.peek(&mut [0u8; 1]) {
            Ok(_) => {} // a frame, or end of stream: the read below tells
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if patience.is_some() {
                    return Ok(Some(stream));
                }
                continue;
            }
            Err(_) => return Ok(None),
        }
        let frame = match read_control_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Ok(None), // clean EOF
            Err(NetError::Io(e))
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                continue
            }
            Err(_) => return Ok(None), // garbage on a reliable link: drop them
        };
        let reply = match frame {
            ControlFrame::Subscribe { file } => {
                let info = shared.directory.lock().expect("directory lock").get(file.0);
                Some(match info {
                    Some(info) => ControlFrame::SubscribeAck { file, info },
                    None => ControlFrame::SubscribeNak {
                        file,
                        reason: "file is not on this station".to_string(),
                    },
                })
            }
            ControlFrame::ResyncRequest => Some(shared.resync_frame()),
            // The live metrics plane: render the shared registry in the
            // requested format.  A station's registry is a couple dozen
            // fixed-name metrics, far under the control-frame cap.
            ControlFrame::MetricsRequest { format } => Some(ControlFrame::Metrics {
                format,
                body: match format {
                    MetricsFormat::Text => shared.telemetry.export_text(),
                    MetricsFormat::Json => shared.telemetry.export_json(),
                },
            }),
            ControlFrame::Leave => return Ok(None),
            _ => None,
        };
        if let Some(reply) = reply {
            write_control_frame(&mut stream, &reply)?;
        }
    }
}

/// Reads one length-prefixed control frame from a TCP stream.  `Ok(None)`
/// is a clean end of stream.
pub(crate) fn read_control_frame(stream: &mut TcpStream) -> Result<Option<ControlFrame>, NetError> {
    let mut len_bytes = [0u8; 4];
    match stream.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_CONTROL_FRAME {
        return Err(NetError::Protocol("oversized control frame"));
    }
    let mut packet = vec![0u8; len];
    stream.read_exact(&mut packet)?;
    match decode(&packet)? {
        Packet::Frame(Frame::Control(control)) => Ok(Some(control)),
        _ => Err(NetError::Protocol("expected a control frame")),
    }
}

/// Writes one length-prefixed control frame to a TCP stream — as a single
/// write: a length written apart from its packet leaves the packet waiting
/// for the peer's delayed ACK of the length (Nagle), tens of milliseconds
/// on every request after a connection's first.
pub(crate) fn write_control_frame(
    stream: &mut TcpStream,
    control: &ControlFrame,
) -> Result<(), NetError> {
    let packet = encode(&Frame::Control(control.clone()));
    let mut framed = Vec::with_capacity(4 + packet.len());
    framed.extend_from_slice(&(packet.len() as u32).to_le_bytes());
    framed.extend_from_slice(&packet);
    stream.write_all(&framed)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::datagrams;
    use bdisk::{
        BroadcastFile, BroadcastProgram, BroadcastServer, FileSet, FileSource, FlatOrder,
        TransmissionRef,
    };
    use brt::LaneCell;
    use bytes::Bytes;
    use ida::{BlockHeader, DispersedBlock, FileId};

    /// The cell of `slot` with one live lane, channel 0 under `epoch`.
    fn one_lane(slot: usize, epoch: u64, block: &DispersedBlock) -> SlotCell {
        SlotCell {
            slot,
            lanes: vec![LaneCell {
                epoch: Some(epoch),
                block: Some(block.clone()),
            }],
        }
    }

    fn test_block() -> DispersedBlock {
        DispersedBlock::new(
            BlockHeader {
                file: FileId(1),
                index: 0,
                m: 2,
                n: 4,
                original_len: 64,
            },
            Bytes::from(vec![5u8; 16]),
        )
    }

    #[test]
    fn joined_peer_receives_published_slots() {
        let (mut fanout, handle, client) = station_with_listener(NetConfig::default());
        let mut buf = [0u8; 2048];

        let block = test_block();
        fanout.publish(&one_lane(3, 7, &block));
        let (len, _) = client.recv_from(&mut buf).unwrap();
        let Packet::Frame(Frame::Slot(sf)) = decode(&buf[..len]).unwrap() else {
            panic!("expected a slot frame");
        };
        assert_eq!(sf.slot, 3);
        assert_eq!(sf.epoch, 7);
        assert_eq!(sf.block, block);

        // A frame that fits one datagram is one `send_to`, train or no train.
        let stats = handle.stats();
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.frames_sent, 1);
        assert_eq!(stats.frames_fragmented, 0);
        assert_eq!((stats.datagrams_sent, stats.send_calls), (1, 1));
        assert_eq!(stats.bytes_sent, len as u64);
        handle.shutdown();
    }

    /// Binds a station, joins one listener on its address family and waits
    /// for the ack.
    fn station_with_listener(config: NetConfig) -> (UdpFanout, NetHandle, UdpSocket) {
        let ip = config.data_bind.ip();
        let (fanout, handle) = NetServer::bind(config, Telemetry::new()).unwrap();
        let client = UdpSocket::bind(SocketAddr::new(ip, 0)).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        client
            .send_to(
                &encode(&Frame::Control(ControlFrame::Join)),
                handle.data_addr(),
            )
            .unwrap();
        // The join ack doubles as the join barrier.
        let mut buf = [0u8; 2048];
        let (len, _) = client.recv_from(&mut buf).expect("the join ack");
        assert!(matches!(
            decode(&buf[..len]).unwrap(),
            Packet::Frame(Frame::Control(ControlFrame::Resync { .. }))
        ));
        (fanout, handle, client)
    }

    /// Publishes `block` in `slot`; returns the frame's datagrams as the wire
    /// encodes them, beside what the listener then read.  (Every frame the
    /// tests send fits the listener's default receive buffer unread.)
    fn publish_and_listen(
        fanout: &mut UdpFanout,
        client: &UdpSocket,
        slot: usize,
        block: &DispersedBlock,
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let transmission = TransmissionRef { slot, block };
        let frame = Frame::Slot(SlotFrame::from_transmission(0, 1, transmission));
        let expected = datagrams(&frame, fanout.mtu, fanout.seq);
        fanout.publish(&one_lane(slot, 1, block));
        let mut buf = vec![0u8; 65_536];
        let heard = (0..expected.len())
            .map(|i| {
                let (len, _) = client
                    .recv_from(&mut buf)
                    .unwrap_or_else(|e| panic!("datagram {i}: {e}"));
                buf[..len].to_vec()
            })
            .collect();
        (expected, heard)
    }

    /// A block of the 16 KiB, proof-carrying kind `wire_bulk_auth` serves.
    fn authenticated_block() -> DispersedBlock {
        let data: Vec<u8> = (0..4 * 16_384u32).map(|i| (i * 31 + 7) as u8).collect();
        let dispersed = ida::Dispersal::authenticated(4, 8)
            .unwrap()
            .disperse(FileId(1), &data)
            .unwrap();
        dispersed.blocks()[5].clone()
    }

    /// A whole file in one block, so the listener's retrieval completes on
    /// this frame alone.
    fn lone_block(len: usize) -> DispersedBlock {
        DispersedBlock::new(
            BlockHeader {
                file: FileId(1),
                index: 0,
                m: 1,
                n: 1,
                original_len: len as u64,
            },
            Bytes::from((0..len).map(|i| (i * 131 + 3) as u8).collect::<Vec<u8>>()),
        )
    }

    /// Feeds `heard` to a fresh client; the last datagram must complete it.
    fn retrieve(heard: &[Vec<u8>]) -> Vec<u8> {
        let mut state = crate::ClientState::new(FileId(1));
        let (last, rest) = heard.split_last().unwrap();
        assert!(rest.iter().all(|datagram| !state.feed_datagram(datagram)));
        assert!(state.feed_datagram(last));
        state.finish().unwrap().data
    }

    /// Sends one 13-fragment authenticated frame by the train (while the
    /// kernel takes one) or by the loop; either way the listener hears
    /// exactly `wire::datagrams`, in order.
    fn fragmented_frame_arrives_as_encoded(config: NetConfig, train: bool) {
        let (mut fanout, handle, client) = station_with_listener(config);
        fanout.gso = train;
        let (expected, heard) = publish_and_listen(&mut fanout, &client, 9, &authenticated_block());
        assert_eq!(expected.len(), 13);
        assert_eq!(heard, expected);
        let stats = handle.stats();
        assert_eq!((stats.frames_sent, stats.frames_fragmented), (1, 1));
        assert_eq!(stats.datagrams_sent, 13);
        let bytes: usize = expected.iter().map(Vec::len).sum();
        assert_eq!(stats.bytes_sent, bytes as u64);
        assert_eq!(stats.send_errors, 0);
        // A kernel that refuses trains cleared the flag and the loop sent
        // the frame: visible here (CI prints it), not a failure.
        println!(
            "train asked {train}, live {}: bnet_send_calls {} bnet_datagrams_sent {}",
            fanout.gso, stats.send_calls, stats.datagrams_sent
        );
        assert_eq!(stats.send_calls, if fanout.gso { 1 } else { 13 });
        handle.shutdown();
    }

    #[test]
    fn a_fragmented_frame_arrives_as_encoded_by_train_and_by_loop() {
        fragmented_frame_arrives_as_encoded(NetConfig::default(), true);
        fragmented_frame_arrives_as_encoded(NetConfig::default(), false);
    }

    #[test]
    fn ipv6_peers_take_the_train_too() {
        let config = NetConfig {
            data_bind: "[::1]:0".parse().unwrap(),
            ..NetConfig::default()
        };
        if UdpSocket::bind(config.data_bind).is_err() {
            println!("skipped: this box has no IPv6 loopback");
            return;
        }
        fragmented_frame_arrives_as_encoded(config.clone(), true);
        fragmented_frame_arrives_as_encoded(config, false);
    }

    /// Both limits of a train cut a longer frame on fragment boundaries.
    /// (Frames sized to fit the listener's default receive buffer, which a
    /// test cannot raise: it holds 92 datagrams of 1400 bytes, so the 95
    /// fragments of a 128 KiB block at the default `mtu` overflow it.)
    #[test]
    fn a_frame_longer_than_one_train_goes_out_as_several() {
        // (mtu, block bytes, fragments, trains): 46 + 2 where the byte
        // limit binds, 64 + 64 + 2 where the segment limit does.
        for (mtu, len, fragments, trains) in [(1400, 65_536, 48, 2), (256, 29_800, 130, 3)] {
            let (mut fanout, handle, client) = station_with_listener(NetConfig {
                mtu,
                ..NetConfig::default()
            });
            let block = lone_block(len);
            let (expected, heard) = publish_and_listen(&mut fanout, &client, 0, &block);
            assert_eq!(expected.len(), fragments, "mtu {mtu}");
            assert_eq!(heard, expected, "mtu {mtu}");
            assert_eq!(retrieve(&heard)[..], block.payload()[..]);
            let stats = handle.stats();
            assert_eq!(stats.datagrams_sent, fragments as u64);
            let calls = if fanout.gso { trains } else { fragments };
            assert_eq!(stats.send_calls, calls as u64, "mtu {mtu}");
            handle.shutdown();
        }
    }

    /// At an `mtu` no two fragments of which fit one train, the first
    /// fragmented frame is refused by the kernel (`EMSGSIZE`, the refusal
    /// every kernel gives) — or by the platform stub, to the same effect:
    /// the fan-out sends that very frame by the loop, complete, and never
    /// asks again.
    #[test]
    fn a_refused_train_is_sent_by_the_loop_and_the_refusal_is_latched() {
        let (mut fanout, handle, client) = station_with_listener(NetConfig {
            mtu: 40_000,
            ..NetConfig::default()
        });
        assert!(fanout.gso);
        let block = lone_block(100_000);
        for frame in 1..=3u64 {
            let (expected, heard) =
                publish_and_listen(&mut fanout, &client, frame as usize, &block);
            assert_eq!(expected.len(), 3);
            assert_eq!(heard, expected);
            assert_eq!(retrieve(&heard)[..], block.payload()[..]);
            assert!(!fanout.gso);
            let stats = handle.stats();
            assert_eq!(stats.datagrams_sent, 3 * frame);
            assert_eq!(stats.send_calls, 3 * frame, "refused calls are not sends");
            assert_eq!(stats.send_errors, 0);
        }
        handle.shutdown();
    }

    #[test]
    fn leave_removes_the_peer_and_publishing_without_peers_is_cheap() {
        let (mut fanout, handle, client) = station_with_listener(NetConfig::default());
        client
            .send_to(
                &encode(&Frame::Control(ControlFrame::Leave)),
                handle.data_addr(),
            )
            .unwrap();
        // Wait until the membership thread processed the leave.
        let mut waited = 0;
        while handle.stats().peers > 0 && waited < 100 {
            std::thread::sleep(Duration::from_millis(5));
            waited += 1;
        }
        assert_eq!(handle.stats().peers, 0);
        fanout.publish(&one_lane(0, 1, &test_block()));
        assert_eq!(handle.stats().datagrams_sent, 0);
        handle.shutdown();
    }

    #[test]
    fn the_data_socket_answers_a_join_and_no_resync_request() {
        let (_fanout, handle, client) = station_with_listener(NetConfig::default());
        client
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        // The membership loop takes datagrams in order: once the second
        // join's ack is in, an answer to the request would be too.
        for control in [ControlFrame::ResyncRequest, ControlFrame::Join] {
            client
                .send_to(&encode(&Frame::Control(control)), handle.data_addr())
                .unwrap();
        }
        let mut buf = [0u8; 2048];
        let (len, _) = client.recv_from(&mut buf).expect("the join ack");
        assert!(matches!(
            decode(&buf[..len]).unwrap(),
            Packet::Frame(Frame::Control(ControlFrame::Resync { .. }))
        ));
        let extra = client.recv_from(&mut buf);
        assert!(extra.is_err(), "a reply to the resync request: {extra:?}");
        handle.shutdown();
    }

    #[test]
    fn control_plane_answers_subscriptions_from_the_directory() {
        let (mut fanout, handle) =
            NetServer::bind(NetConfig::default().with_control_plane(), Telemetry::new()).unwrap();
        // A bank whose second channel was reprogrammed: file 2 is served
        // under epoch 1 there.
        let mut bank = EpochBank::new(vec![server_for(&[1]), server_for(&[3])]).unwrap();
        bank.swap(8, vec![server_for(&[1]), server_for(&[2])])
            .unwrap();
        fanout.mode_changed(&bank);
        let addr = handle.control_addr().expect("control plane configured");
        let mut stream = TcpStream::connect(addr).unwrap();

        write_control_frame(&mut stream, &ControlFrame::Subscribe { file: FileId(2) }).unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        assert_eq!(
            reply,
            ControlFrame::SubscribeAck {
                file: FileId(2),
                info: SubscriptionInfo::new(1, 1, 2, 4),
            }
        );

        write_control_frame(&mut stream, &ControlFrame::Subscribe { file: FileId(9) }).unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        assert!(matches!(
            reply,
            ControlFrame::SubscribeNak {
                file: FileId(9),
                ..
            }
        ));

        // Nothing was published yet: the live epoch is the fan-out's own,
        // whatever the directory says.
        write_control_frame(&mut stream, &ControlFrame::ResyncRequest).unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        assert!(matches!(reply, ControlFrame::Resync { epoch: 0, .. }));
        handle.shutdown();
    }

    #[test]
    fn the_live_directory_follows_moves_drops_dark_lanes_and_refreshes() {
        let mut live = LiveDirectory::default();
        let answers = |live: &LiveDirectory| (0..8).map(|f| live.get(f)).collect::<Vec<_>>();
        let expected = |bank: &EpochBank| {
            let directory = directory_of(bank);
            (0..8)
                .map(|f| directory.get(&f).copied())
                .collect::<Vec<_>>()
        };
        let mut bank = EpochBank::new(vec![server_for(&[1, 2]), server_for(&[3])]).unwrap();
        live.update(&bank);
        assert_eq!(answers(&live), expected(&bank));
        let steps: [&[&[u32]]; 5] = [
            &[&[1, 2], &[3, 4]],    // a file arrives
            &[&[1], &[3, 4], &[2]], // one moves to a lane that lights up
            &[&[2, 1], &[4]],       // moves back, one is dropped, a lane goes dark
            &[&[5]],                // everything changes
            &[&[5], &[1], &[2, 3]], // lanes light up again
        ];
        for (slot, layout) in steps.iter().enumerate() {
            bank.swap(slot, layout.iter().map(|ids| server_for(ids)).collect())
                .unwrap();
            live.update(&bank);
            assert_eq!(answers(&live), expected(&bank), "after {layout:?}");
        }

        // A content refresh: channel 2 flips with file 3 re-dispersed and
        // file 2 riding over as the same blocks; channel 1 keeps its epoch.
        let old = bank.current_arc(2).unwrap();
        let files = FileSet::new(
            [2, 3]
                .map(|i| BroadcastFile::new(FileId(i), format!("F{i}"), 2, 8).with_dispersal(4))
                .to_vec(),
        )
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let refreshed = BroadcastServer::with_dispersals(&files, program, &BTreeMap::new(), |f| {
            Some(match f.id {
                FileId(3) => FileSource::Content(vec![7u8; 16].into()),
                id => FileSource::Dispersed(old.dispersed(id)?.clone()),
            })
        })
        .unwrap();
        let servers = vec![
            bank.current_arc(0).unwrap(),
            bank.current_arc(1).unwrap(),
            Arc::new(refreshed),
        ];
        bank.swap(9, servers).unwrap();
        live.update(&bank);
        assert_eq!(answers(&live), expected(&bank));
        assert_eq!(
            live.get(2).unwrap().epoch,
            bank.epoch(),
            "a flipped channel's epoch"
        );
        assert!(live.get(1).unwrap().epoch < bank.epoch());
    }

    /// One channel server carrying `ids`, each 2 blocks dispersed to 4.
    fn server_for(ids: &[u32]) -> Arc<BroadcastServer> {
        let files = ids
            .iter()
            .map(|&i| BroadcastFile::new(FileId(i), format!("F{i}"), 2, 8).with_dispersal(4))
            .collect();
        let files = FileSet::new(files).unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        Arc::new(BroadcastServer::with_synthetic_contents(&files, program).unwrap())
    }

    #[test]
    fn mode_changes_and_published_epochs_reach_the_control_plane() {
        let (mut fanout, handle) =
            NetServer::bind(NetConfig::default().with_control_plane(), Telemetry::new()).unwrap();
        let addr = handle.control_addr().expect("control plane configured");
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut served = |file: u32| {
            let file = FileId(file);
            write_control_frame(&mut stream, &ControlFrame::Subscribe { file }).unwrap();
            match read_control_frame(&mut stream).unwrap().unwrap() {
                ControlFrame::SubscribeAck { info, .. } => Some(info),
                _ => None,
            }
        };

        // The directory is whatever the bank serves when the sink is told.
        let kept = server_for(&[1]);
        let mut bank = EpochBank::new(vec![kept.clone(), server_for(&[2])]).unwrap();
        assert_eq!(served(2), None);
        fanout.mode_changed(&bank);
        assert_eq!(served(2), Some(SubscriptionInfo::new(1, 0, 2, 4)));

        // A swap reprogramming channel 1: its files answer under the bumped
        // epoch, the untouched channel keeps epoch 0 — nothing is pushed.
        bank.swap(8, vec![kept, server_for(&[2, 3])]).unwrap();
        fanout.mode_changed(&bank);
        assert_eq!(served(1), Some(SubscriptionInfo::new(0, 0, 2, 4)));
        assert_eq!(served(2), Some(SubscriptionInfo::new(1, 1, 2, 4)));
        assert_eq!(served(3), Some(SubscriptionInfo::new(1, 1, 2, 4)));

        // Publishing under epoch 9 makes the resync report the live epoch.
        fanout.publish(&one_lane(5, 9, &test_block()));
        write_control_frame(&mut stream, &ControlFrame::ResyncRequest).unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        assert_eq!(
            reply,
            ControlFrame::Resync {
                epoch: 9,
                next_slot: 6,
            }
        );
        handle.shutdown();
    }

    #[test]
    fn control_plane_serves_metrics_in_both_formats() {
        let telemetry = Telemetry::new();
        let (mut fanout, handle) =
            NetServer::bind(NetConfig::default().with_control_plane(), telemetry.clone()).unwrap();
        // Publishing with no peers still registers the bnet_* names, so a
        // scrape sees them at zero; publish once to be sure.
        fanout.publish(&one_lane(0, 1, &test_block()));
        let addr = handle.control_addr().expect("control plane configured");
        let mut stream = TcpStream::connect(addr).unwrap();

        write_control_frame(
            &mut stream,
            &ControlFrame::MetricsRequest {
                format: MetricsFormat::Text,
            },
        )
        .unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        let ControlFrame::Metrics {
            format: MetricsFormat::Text,
            body,
        } = reply
        else {
            panic!("expected a text metrics reply");
        };
        assert!(body.contains("# TYPE bnet_frames_sent counter"));
        assert!(body.contains("bnet_peers"));

        write_control_frame(
            &mut stream,
            &ControlFrame::MetricsRequest {
                format: MetricsFormat::Json,
            },
        )
        .unwrap();
        let reply = read_control_frame(&mut stream).unwrap().unwrap();
        let ControlFrame::Metrics {
            format: MetricsFormat::Json,
            body,
        } = reply
        else {
            panic!("expected a JSON metrics reply");
        };
        assert!(body.starts_with('{'));
        assert!(body.contains("\"bnet_frames_sent\""));
        handle.shutdown();
    }
}
