//! The shadow pipeline: one retrieval's journey, composed single-threaded
//! from the layers' public functions, one root span per retrieval and one
//! child span per call.
//!
//! bytes → disperse → leaf hash → commit → proof → `transmit_all_into` →
//! ring publish/read → `wire::datagrams` → `send_to`/`recv_from` on
//! benchmark-owned loopback sockets → `wire::decode` → `Reassembler::offer`
//! → `verify_block` → `ClientSession::ingest` → reconstruct.
//!
//! The deployed path runs the same calls pipelined across threads and
//! hidden inside the crates; here each one is visible, so the budget says
//! where a retrieval's time goes and what no layer call covers.  A workload
//! skips the stages its deployed path does not have: the unauthenticated
//! ones commit and verify nothing, the synchronous drive has no ring and no
//! wire but samples its loss model per transmission.

use crate::gen::{self, Catalog, Requests, Stream};
use crate::trace::{NameId, SpanId, Tracer, NO_PARENT};
use crate::workloads::Kind;
use rtbdisk::bauth::{self, CommitPlan, Root};
use rtbdisk::bdisk::{ClientSession, Ingest, Observation};
use rtbdisk::bfault::{Impairer, Impairments};
use rtbdisk::bnet::wire::{self, Frame, Packet, Reassembler, SlotFrame};
use rtbdisk::brt::{BroadcastRing, LaneCell, RingRead, SlotCell};
use rtbdisk::ida::{Dispersal, DispersedBlock};
use rtbdisk::{BernoulliErrors, ErrorModel, FileId, NetConfig};
use std::net::UdpSocket;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Retrievals pushed through the shadow, per workload: enough calls of every
/// kind for stable per-call means, few enough to stay inside the traced
/// run's budget.
fn planned_retrievals(kind: Kind) -> u32 {
    match kind {
        Kind::WireBulkAuth => 12,
        Kind::WireSmallPlain => 512,
        Kind::DriveFleetLossy => 96,
        Kind::RefreshAsDeployed => 24,
    }
}

pub struct Shadow {
    pub tracer: Tracer,
    pub retrievals: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub goodput_bytes: u64,
    /// Slots walked, idle ones included.
    pub slots: u64,
    pub datagrams: u64,
    /// Retrievals that had to solve at least one source block from a coded
    /// one.
    pub coded: u64,
    pub cached_inverses: usize,
    /// The raw datagrams of the first retrieval and its file, for replaying
    /// through `ClientState::feed_datagram`.
    pub replay: Vec<Vec<u8>>,
    pub replay_file: FileId,
    pub replay_root: Option<Root>,
}

struct Names {
    retrieval: NameId,
    disperse: NameId,
    leaf_hash: NameId,
    tree_commit: NameId,
    proof: NameId,
    transmit: NameId,
    ring_publish: NameId,
    ring_read: NameId,
    frame: NameId,
    send: NameId,
    recv: NameId,
    impair: NameId,
    decode: NameId,
    reassemble: NameId,
    verify: NameId,
    is_lost: NameId,
    ingest: NameId,
    reconstruct: NameId,
}

impl Names {
    fn intern(t: &mut Tracer) -> Names {
        Names {
            retrieval: t.name("retrieval"),
            disperse: t.name("ida.disperse"),
            leaf_hash: t.name("bauth.leaf_hash"),
            tree_commit: t.name("bauth.tree_commit"),
            proof: t.name("bauth.proof"),
            transmit: t.name("bdisk.transmit"),
            ring_publish: t.name("brt.ring_publish"),
            ring_read: t.name("brt.ring_read"),
            frame: t.name("bnet.frame"),
            send: t.name("bnet.send"),
            recv: t.name("bnet.recv"),
            impair: t.name("bfault.apply"),
            decode: t.name("bnet.decode"),
            reassemble: t.name("bnet.reassemble"),
            verify: t.name("bauth.verify_block"),
            is_lost: t.name("bsim.is_lost"),
            ingest: t.name("bdisk.ingest"),
            reconstruct: t.name("ida.reconstruct"),
        }
    }
}

/// The loss a workload's medium applies.
enum Loss {
    None,
    /// Per datagram, after the socket (`wire_bulk_auth`).
    Datagrams(Impairer),
    /// Per transmission, in place of a medium (`drive_fleet_lossy`).
    Receptions(BernoulliErrors),
}

/// The receiving half of one shadow retrieval.
struct Receiver<'a> {
    file: FileId,
    root: Option<Root>,
    session: ClientSession,
    blocks: Vec<DispersedBlock>,
    names: &'a Names,
    parent: SpanId,
    retrieval: u32,
}

impl Receiver<'_> {
    /// Verifies (when authenticated) and ingests one delivered block;
    /// `true` once the retrieval is complete.
    fn deliver(&mut self, tracer: &mut Tracer, slot: usize, block: &DispersedBlock) -> bool {
        if block.file() != self.file {
            return false;
        }
        let (names, parent, retrieval) = (self.names, self.parent, self.retrieval);
        if let Some(root) = &self.root {
            let h = *block.header();
            let verified = tracer.span(names.verify, parent, retrieval, || {
                block.proof().is_some_and(|proof| {
                    bauth::verify_block(
                        root,
                        h.file.0,
                        h.index,
                        h.m,
                        h.n,
                        h.original_len,
                        block.payload(),
                        proof,
                    )
                })
            });
            if !verified {
                self.session.ingest(Observation::Erasure { count: 1 });
                return false;
            }
        }
        let ingest = tracer.span(names.ingest, parent, retrieval, || {
            self.session.ingest(Observation::Block {
                slot,
                block,
                received_ok: true,
                proof: None,
            })
        });
        if matches!(ingest, Ingest::Stored | Ingest::Completed) {
            self.blocks.push(block.clone());
        }
        ingest.completed()
    }
}

pub fn run(kind: Kind, catalog: &Catalog, seed: u64, budget: Duration) -> Result<Shadow, String> {
    let shape = kind.shape();
    let m = shape.blocks as usize;
    let station = catalog.build_station(shape.authenticated)?;
    let n = station.files().files()[0].dispersed_blocks as usize;

    let on_wire = kind != Kind::DriveFleetLossy;
    let mut loss = match kind {
        Kind::WireBulkAuth => Loss::Datagrams(Impairer::new(
            Impairments::loss(0.001),
            gen::sub_seed(seed, Stream::Loss),
        )),
        Kind::DriveFleetLossy => Loss::Receptions(BernoulliErrors::new(
            0.10,
            gen::sub_seed(seed, Stream::Loss),
        )),
        _ => Loss::None,
    };

    // One plain dispersal for the whole run, like the station's shared
    // `Arc<Dispersal>`: encode plan built once, inverse cache shared.
    let dispersal = Dispersal::new(m, n).map_err(|e| format!("dispersal: {e}"))?;
    let commit_plan = CommitPlan::new(n).ok_or("commit plan")?;
    let ring = BroadcastRing::new(1024);
    let detached = AtomicBool::new(false);
    let mtu = NetConfig::default().mtu;
    let (tx_socket, rx_socket) = (
        UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?,
        UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?,
    );
    rx_socket
        .set_read_timeout(Some(Duration::from_secs(1)))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let rx_addr = rx_socket
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let mut buf = vec![0u8; 65_536];

    let mut tracer = Tracer::new(true);
    let names = Names::intern(&mut tracer);
    let mut requests = Requests::new(&shape, seed);
    let mut out = Shadow {
        tracer: Tracer::new(false),
        retrievals: 0,
        failed: 0,
        failures: Vec::new(),
        goodput_bytes: 0,
        slots: 0,
        datagrams: 0,
        coded: 0,
        cached_inverses: 0,
        replay: Vec::new(),
        replay_file: FileId(0),
        replay_root: None,
    };

    let mut lanes = Vec::new();
    let mut slot = 0usize;
    let mut sequence = 0u64;
    let started = Instant::now();
    for retrieval in 0..planned_retrievals(kind) {
        if retrieval > 0 && started.elapsed() > budget {
            break;
        }
        let file = requests.next_file();
        let content = &catalog.contents[&file];
        let root_span = tracer.begin(names.retrieval, NO_PARENT, retrieval);
        let span = |tracer: &mut Tracer, name: NameId| tracer.begin(name, root_span, retrieval);

        // ---- The write side: bytes → dispersed, committed blocks.
        let s = span(&mut tracer, names.disperse);
        let dispersed = dispersal.disperse(file, content);
        tracer.end(s);
        let dispersed = dispersed.map_err(|e| format!("disperse: {e}"))?;
        let mut root = None;
        if shape.authenticated {
            let leaves: Vec<Root> = dispersed
                .blocks()
                .iter()
                .map(|b| {
                    tracer.span(names.leaf_hash, root_span, retrieval, || {
                        bauth::leaf_hash(
                            file.0,
                            b.index(),
                            m as u32,
                            n as u32,
                            content.len() as u64,
                            b.payload(),
                        )
                    })
                })
                .collect();
            let s = span(&mut tracer, names.tree_commit);
            let commitment = commit_plan.commit(&leaves);
            tracer.end(s);
            for index in 0..n {
                let proof = tracer.span(names.proof, root_span, retrieval, || {
                    commitment.proof(index)
                });
                if proof.is_none() {
                    return Err(format!("no proof for block {index}"));
                }
            }
            // The shadow's commitment must be the one the station serves.
            if Some(commitment.root()) != station.commitment_root_of(file) {
                return Err(format!("{file}: the shadow's root is not the station's"));
            }
            root = Some(commitment.root());
        }

        // ---- The read side: slots → blocks → bytes.
        let recording = retrieval == 0 && on_wire;
        if recording {
            out.replay_file = file;
            out.replay_root = root;
        }
        let mut receiver = Receiver {
            file,
            root,
            session: ClientSession::new(file, m, slot),
            blocks: Vec::with_capacity(m),
            names: &names,
            parent: root_span,
            retrieval,
        };
        let mut reassembler = Reassembler::new(16);
        let mut complete = false;
        while !complete {
            let s = span(&mut tracer, names.transmit);
            station.transmit_all_into(slot, &mut lanes);
            tracer.end(s);
            let transmission = lanes.first().copied().flatten();
            if on_wire {
                // The serving thread publishes every slot, idle ones too.
                let cell = SlotCell {
                    slot,
                    lanes: vec![LaneCell {
                        epoch: Some(0),
                        block: transmission.map(|tx| tx.block.clone()),
                    }],
                };
                let s = span(&mut tracer, names.ring_publish);
                ring.publish(cell);
                tracer.end(s);
                let s = span(&mut tracer, names.ring_read);
                let read = ring.read(slot, &detached);
                tracer.end(s);
                if !matches!(read, RingRead::Cell(_)) {
                    return Err(format!("ring read at slot {slot}: {read:?}"));
                }
            }
            if let Some(tx) = transmission {
                if on_wire {
                    let s = span(&mut tracer, names.frame);
                    let frame = Frame::Slot(SlotFrame::from_transmission(0, 0, tx));
                    let packets = wire::datagrams(&frame, mtu, sequence);
                    tracer.end(s);
                    if packets.len() > 1 {
                        sequence += 1;
                    }
                    for packet in &packets {
                        let s = span(&mut tracer, names.send);
                        let sent = tx_socket.send_to(packet, rx_addr);
                        tracer.end(s);
                        sent.map_err(|e| format!("send_to: {e}"))?;
                        let s = span(&mut tracer, names.recv);
                        let received = rx_socket.recv_from(&mut buf);
                        tracer.end(s);
                        let (len, _) = received.map_err(|e| format!("recv_from: {e}"))?;
                        out.datagrams += 1;
                        if recording {
                            out.replay.push(buf[..len].to_vec());
                        }
                        let delivered = match &mut loss {
                            Loss::Datagrams(impairer) => {
                                tracer.span(names.impair, root_span, retrieval, || {
                                    impairer.apply(&buf[..len])
                                })
                            }
                            _ => vec![buf[..len].to_vec()],
                        };
                        for datagram in &delivered {
                            let mut packet =
                                tracer.span(names.decode, root_span, retrieval, || {
                                    wire::decode(datagram)
                                });
                            if let Ok(Packet::Fragment(fragment)) = packet {
                                let whole =
                                    tracer.span(names.reassemble, root_span, retrieval, || {
                                        reassembler.offer(fragment)
                                    });
                                let Some(whole) = whole else { continue };
                                packet = tracer.span(names.decode, root_span, retrieval, || {
                                    wire::decode(&whole)
                                });
                            }
                            if let Ok(Packet::Frame(Frame::Slot(sf))) = packet {
                                complete |=
                                    receiver.deliver(&mut tracer, sf.slot as usize, &sf.block);
                            }
                        }
                    }
                } else {
                    let lost = match &mut loss {
                        Loss::Receptions(errors) => {
                            tracer.span(names.is_lost, root_span, retrieval, || errors.is_lost(tx))
                        }
                        _ => false,
                    };
                    if lost {
                        receiver.session.ingest(Observation::Slot {
                            transmission: Some(tx),
                            received_ok: false,
                        });
                    } else {
                        complete |= receiver.deliver(&mut tracer, slot, tx.block);
                    }
                }
            }
            slot += 1;
            out.slots += 1;
            if slot > 10_000_000 {
                return Err("the shadow walked ten million slots without completing".into());
            }
        }
        let s = span(&mut tracer, names.reconstruct);
        let data = dispersal.reconstruct(&receiver.blocks);
        tracer.end(s);
        tracer.end(root_span);

        out.retrievals += 1;
        if receiver.blocks.iter().any(|b| b.index() as usize >= m) {
            out.coded += 1;
        }
        match data {
            Ok(data) if data == *content => out.goodput_bytes += data.len() as u64,
            Ok(_) => {
                out.failed += 1;
                out.failures.push(format!(
                    "shadow {file}: bytes differ from the deployed path's"
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.failures
                    .push(format!("shadow {file}: reconstruct: {e}"));
            }
        }
    }
    out.cached_inverses = dispersal.cached_inverses();
    out.tracer = tracer;
    Ok(out)
}
