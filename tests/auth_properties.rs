//! Authenticated-broadcast properties: the Merkle commitment pipeline from
//! disperse-time commit to verify-on-receive.
//!
//! The claims pinned here are the tentpole guarantees of the `bauth`
//! subsystem:
//!
//! * **corruption ≡ erasure** — under an armed root, a post-CRC-corrupted
//!   block costs a retrieval *exactly* what a lost block costs: one typed
//!   erasure, byte-identical output;
//! * **proofs survive the wire** — inclusion proofs ride slot frames
//!   through encode/decode whole and through MTU fragmentation, verifying
//!   on the far side;
//! * **roots survive epoch swaps** — a mode swap that keeps a file's
//!   `(m, n)` republishes the same commitment root, so armed sessions keep
//!   verifying across the flip;
//! * **a tampered root fails typed** — a session armed with the wrong root
//!   rejects every authentic block as a verify failure, never as a
//!   poisoned reconstruct;
//! * **the acceptance scenario** — a real retrieval through a 5% post-CRC
//!   corrupting `ImpairedLink` reconstructs byte-identically with
//!   `authenticated(true)`, corrupted blocks visible as typed erasures.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtbdisk::bauth::Root;
use rtbdisk::bdisk::{ClientSession, Ingest, Observation};
use rtbdisk::bfault::{FaultPlan, ImpairedLink};
use rtbdisk::bnet::wire::{
    datagrams, decode, encode, ControlFrame, Frame, Packet, Reassembler, SlotFrame,
    SubscriptionInfo, VERSION, VERSION_AUTH,
};
use rtbdisk::bnet::ClientState;
use rtbdisk::ida::{Dispersal, DispersedBlock, FileId};
use rtbdisk::{
    Broadcast, GeneralizedFileSpec, ManualClock, ModeSpec, NetClient, NetConfig, NoErrors,
    RecoveryConfig, RuntimeConfig, Station, SwapPolicy,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One authenticated dispersal every in-process property runs against.
fn authenticated_file() -> (Dispersal, rtbdisk::ida::DispersedFile, Vec<u8>, Root) {
    let dispersal = Dispersal::authenticated(4, 8).expect("4-of-8 is valid");
    let data: Vec<u8> = (0..4 * 256u32).map(|i| (i * 31 + 5) as u8).collect();
    let file = dispersal.disperse(FileId(9), &data).expect("disperses");
    let root = file.commitment_root().expect("authenticated commits");
    (dispersal, file, data, root)
}

/// Flips one payload bit of `block`, keeping its header and (stale) proof —
/// the post-CRC Byzantine mutation.
fn tampered(block: &DispersedBlock) -> DispersedBlock {
    let mut payload = block.payload().to_vec();
    payload[0] ^= 0x01;
    let mut out = DispersedBlock::new(*block.header(), Bytes::from(payload));
    if let Some(proof) = block.proof() {
        out = out.with_proof(proof.clone());
    }
    out
}

// ---------------------------------------------------------------------------
// Corruption ≡ erasure under an armed root.

#[test]
fn a_corrupted_block_costs_exactly_what_an_erasure_costs() {
    let (dispersal, file, data, root) = authenticated_file();

    // Session A sees block 0 Byzantine-corrupted; session B loses the same
    // slot outright.  Both then hear blocks 1..=4 clean.
    let mut corrupted = ClientSession::new(FileId(9), 4, 0);
    corrupted.require_root(root);
    let mut erased = ClientSession::new(FileId(9), 4, 0);
    erased.require_root(root);

    let bad = tampered(&file.blocks()[0]);
    assert_eq!(
        corrupted.ingest(Observation::Block {
            slot: 0,
            block: &bad,
            received_ok: true,
            proof: None,
        }),
        Ingest::BadProof,
        "a stale proof over mutated bytes must fail verification"
    );
    assert_eq!(
        erased.ingest(Observation::Erasure { count: 1 }),
        Ingest::Erased
    );

    for (i, block) in file.blocks()[1..5].iter().enumerate() {
        let a = corrupted.ingest(Observation::Block {
            slot: 1 + i,
            block,
            received_ok: true,
            proof: None,
        });
        let b = erased.ingest(Observation::Block {
            slot: 1 + i,
            block,
            received_ok: true,
            proof: None,
        });
        assert_eq!(a, b, "block {i}: the two sessions must move in lockstep");
    }

    let a = corrupted.finish(&dispersal).expect("corrupted completes");
    let b = erased.finish(&dispersal).expect("erased completes");
    assert_eq!(a.data, data, "corruption must not reach the output bytes");
    assert_eq!(a.data, b.data);
    assert_eq!(a.completion_slot, b.completion_slot);
    assert_eq!(
        a.errors_observed, b.errors_observed,
        "the corruption is booked as exactly one erasure"
    );
    // The only visible difference is the *type* of the loss.
    assert_eq!(corrupted.verify_failures(), 1);
    assert_eq!(erased.verify_failures(), 0);
}

#[test]
fn an_unauthenticated_session_cannot_tell_and_reconstructs_wrong() {
    // The contrast case: no armed root, the same corrupted block poisons
    // the reconstruction silently — which is why the Byzantine fault-matrix
    // row without auth records `completed: false`.
    let (dispersal, file, data, _root) = authenticated_file();
    let mut blind = ClientSession::new(FileId(9), 4, 0);
    let bad = tampered(&file.blocks()[0]);
    assert_eq!(
        blind.ingest(Observation::Block {
            slot: 0,
            block: &bad,
            received_ok: true,
            proof: None,
        }),
        Ingest::Stored,
        "without a root the corrupted block is accepted"
    );
    for (i, block) in file.blocks()[1..4].iter().enumerate() {
        blind.ingest(Observation::Block {
            slot: 1 + i,
            block,
            received_ok: true,
            proof: None,
        });
    }
    let outcome = blind.finish(&dispersal).expect("reconstruction runs");
    assert_ne!(outcome.data, data, "the poison is silent without a root");
}

// ---------------------------------------------------------------------------
// Proofs over the wire: whole datagrams and fragmentation.

#[test]
fn proofs_round_trip_the_wire_whole_and_fragmented() {
    let (dispersal, file, _data, root) = authenticated_file();
    let block = file.blocks()[3].clone();
    assert!(block.proof().is_some(), "authenticated blocks carry proofs");
    let frame = Frame::Slot(SlotFrame {
        epoch: 7,
        channel: 1,
        slot: 42,
        block: block.clone(),
    });

    // Whole: one datagram, version byte 2, proof intact and verifying.
    let wire = encode(&frame);
    assert_eq!(wire[4], VERSION_AUTH, "proof-carrying slots are wire v2");
    let Ok(Packet::Frame(Frame::Slot(sf))) = decode(&wire) else {
        panic!("the v2 slot frame must decode");
    };
    assert_eq!(sf.block.payload(), block.payload());
    let proof = sf.block.proof().expect("the proof rode the wire");
    assert_eq!(proof.depth(), block.proof().unwrap().depth());
    assert!(dispersal.verify_block(&root, &sf.block));

    // A proofless block of the same file stays byte-identical wire v1.
    let bare = DispersedBlock::new(*block.header(), block.payload().clone());
    let v1 = encode(&Frame::Slot(SlotFrame {
        epoch: 7,
        channel: 1,
        slot: 42,
        block: bare,
    }));
    assert_eq!(v1[4], VERSION, "proofless slots stay wire v1");

    // Fragmented: an MTU far below the frame size forces several
    // fragments; the reassembled inner frame still verifies.
    let mtu = 96;
    let pieces = datagrams(&frame, mtu, 11);
    assert!(pieces.len() > 2, "the tiny MTU must actually fragment");
    let mut reassembler = Reassembler::new(4);
    let mut inner = None;
    for piece in &pieces {
        assert!(piece.len() <= mtu, "fragments respect the MTU");
        let Ok(Packet::Fragment(frag)) = decode(piece) else {
            panic!("sub-MTU pieces decode as fragments");
        };
        if let Some(whole) = reassembler.offer(frag) {
            inner = Some(whole);
        }
    }
    let inner = inner.expect("all fragments together reassemble");
    let Ok(Packet::Frame(Frame::Slot(sf))) = decode(&inner) else {
        panic!("the reassembled frame must decode");
    };
    assert!(
        dispersal.verify_block(&root, &sf.block),
        "the proof survives fragmentation"
    );
}

#[test]
fn subscription_info_carries_the_root_and_picks_its_wire_version() {
    let root: Root = [0xAB; 32];
    let plain = SubscriptionInfo::new(1, 3, 4, 8);
    assert!(!plain.is_authenticated());
    assert_eq!(plain.wire_version(), VERSION);
    let rooted = plain.with_root(root);
    assert!(rooted.is_authenticated());
    assert_eq!(rooted.wire_version(), VERSION_AUTH);

    // The rooted ack round-trips the root; the plain ack stays v1 bytes.
    for info in [plain, rooted] {
        let wire = encode(&Frame::Control(ControlFrame::SubscribeAck {
            file: FileId(5),
            info,
        }));
        assert_eq!(wire[4], info.wire_version());
        let Ok(Packet::Frame(Frame::Control(ControlFrame::SubscribeAck { file, info: back }))) =
            decode(&wire)
        else {
            panic!("the subscribe ack must decode");
        };
        assert_eq!(file, FileId(5));
        assert_eq!(back, info);
    }
}

// ---------------------------------------------------------------------------
// Roots across epoch swaps.

/// Two channels, two files each — the sibling's removal reprograms the
/// victim's channel (epoch bump) without touching the victim's dispersal.
fn authenticated_station() -> Station {
    let files = (1..=4u32).map(|i| {
        GeneralizedFileSpec::new(FileId(i), 4, vec![40 + 4 * i, 48 + 4 * i]).expect("feasible spec")
    });
    Broadcast::builder()
        .files(files)
        .channels(2)
        .authenticated(true)
        .build()
        .expect("the test specs are feasible")
}

#[test]
fn the_commitment_root_survives_an_epoch_swap_with_unchanged_mn() {
    let mut station = authenticated_station();
    assert!(station.is_authenticated());
    let victim = FileId(1);
    let sibling = {
        let channel = station.channel_of(victim);
        station
            .specs()
            .iter()
            .map(|s| s.id)
            .find(|&f| f != victim && station.channel_of(f) == channel)
            .expect("two files share a channel")
    };
    let root_before = station
        .commitment_root_of(victim)
        .expect("authenticated stations publish roots");
    let expected = station
        .retrieve(victim, 0, &mut NoErrors)
        .expect("the reference retrieval completes")
        .data;

    // Shed the sibling: the victim's channel reprograms under a new epoch,
    // the victim's own dispersal (and therefore its root) is untouched.
    let remaining: Vec<GeneralizedFileSpec> = station
        .specs()
        .iter()
        .filter(|s| s.id != sibling)
        .cloned()
        .collect();
    let prepared = station
        .prepare_mode(&ModeSpec::new("shed-sibling").files(remaining))
        .expect("the shed mode designs");
    station
        .swap(prepared, 8, SwapPolicy::Immediate)
        .expect("the swap lands");

    let root_after = station
        .commitment_root_of(victim)
        .expect("the new epoch republishes the root");
    assert_eq!(
        root_before, root_after,
        "unchanged (m, n) and bytes must keep the commitment root"
    );

    // A post-swap subscription arms with that root and retrieves
    // byte-identically, verification on.
    let mut fleet = vec![station.subscribe(victim, 16).expect("subscribes")];
    assert_eq!(fleet[0].commitment_root(), Some(root_after));
    let outcome = station
        .run_until_complete(&mut fleet, &mut NoErrors)
        .expect("the armed retrieval completes")
        .pop()
        .expect("one outcome");
    assert_eq!(outcome.data, expected);
}

/// Feeds `state` the slot frames `station` puts on `info`'s channel from
/// `from` on, until `enough` holds; returns the first slot not fed.
fn feed_channel(
    station: &Station,
    state: &mut ClientState,
    info: SubscriptionInfo,
    from: usize,
    enough: impl Fn(&ClientState) -> bool,
) -> usize {
    let stream = station
        .stream_channel(usize::from(info.channel), from)
        .expect("the directory names a live channel");
    for (slot, tx) in stream.take(400) {
        if let Some(tx) = tx {
            state.feed_frame(Frame::Slot(SlotFrame::from_transmission(
                info.channel,
                info.epoch,
                tx,
            )));
        }
        if enough(state) {
            return slot + 1;
        }
    }
    panic!("the channel never delivered what the client needed");
}

#[test]
fn an_authenticated_refresh_mid_retrieval_never_mixes_two_contents() {
    let mut station = authenticated_station();
    let victim = FileId(1);
    let old = station
        .retrieve(victim, 0, &mut NoErrors)
        .expect("the reference retrieval completes")
        .data;
    let before = station.network_directory()[&victim.0];
    let m = before.m as usize;

    // Arm from the directory and collect m − 1 verified blocks of the
    // old content.
    let mut state = ClientState::new(victim);
    state.feed_frame(Frame::Control(ControlFrame::SubscribeAck {
        file: victim,
        info: before,
    }));
    let next = feed_channel(&station, &mut state, before, 0, |s| {
        s.blocks_received() == m - 1
    });

    // A content refresh: same specs, so the same (m, n), fresh bytes.
    let fresh: Vec<u8> = old.iter().map(|b| b ^ 0xA5).collect();
    let prepared = station
        .prepare_mode_with_contents(
            &ModeSpec::new("refresh").files(station.specs().to_vec()),
            [(victim, fresh.clone())].into_iter().collect(),
        )
        .expect("the refresh designs");
    let report = station
        .swap(prepared, next, SwapPolicy::Immediate)
        .expect("the swap lands");
    let after = station.network_directory()[&victim.0];
    assert_eq!((after.m, after.n), (before.m, before.n));
    assert_ne!(after.commitment_root, before.commitment_root);

    state.resubscribe(after, report.flip_slot as u64);
    feed_channel(&station, &mut state, after, report.flip_slot, |s| {
        s.is_complete()
    });
    let outcome = state.finish().expect("the refreshed retrieval completes");
    let content = match &outcome.data {
        data if *data == fresh => "fresh",
        data if *data == old => "old",
        _ => "neither",
    };
    assert_eq!(
        (content, state.stats().verify_failures),
        ("fresh", 0),
        "(the content the bytes equal, verify failures)"
    );
}

#[test]
fn an_unauthenticated_station_publishes_no_root() {
    let files = (1..=2u32).map(|i| {
        GeneralizedFileSpec::new(FileId(i), 4, vec![40 + 4 * i, 48 + 4 * i]).expect("feasible spec")
    });
    let station = Broadcast::builder()
        .files(files)
        .channels(1)
        .build()
        .expect("feasible");
    assert!(!station.is_authenticated());
    assert_eq!(station.commitment_root_of(FileId(1)), None);
    let retrieval = station.subscribe(FileId(1), 0).expect("subscribes");
    assert_eq!(retrieval.commitment_root(), None);
}

// ---------------------------------------------------------------------------
// A tampered root fails typed.

#[test]
fn a_tampered_root_rejects_every_authentic_block_as_verify_failures() {
    let (_dispersal, file, _data, root) = authenticated_file();
    let mut wrong_root = root;
    wrong_root[0] ^= 0xFF;

    let mut state = ClientState::new(FileId(9));
    // The (tampered) subscription metadata arrives exactly as a control
    // ack would deliver it.
    state.feed_frame(Frame::Control(ControlFrame::SubscribeAck {
        file: FileId(9),
        info: SubscriptionInfo::new(0, 1, 4, 8).with_root(wrong_root),
    }));
    assert_eq!(state.commitment_root(), Some(wrong_root));

    for (slot, block) in file.blocks().iter().enumerate() {
        let completed = state.feed_frame(Frame::Slot(SlotFrame {
            epoch: 1,
            channel: 0,
            slot: slot as u64,
            block: block.clone(),
        }));
        assert!(!completed, "nothing verifies against the wrong root");
    }
    let stats = state.stats();
    assert!(!state.is_complete());
    assert_eq!(state.blocks_received(), 0, "no block may be stored");
    assert_eq!(
        stats.verify_failures,
        file.blocks().len() as u64,
        "every authentic block is rejected as a typed verify failure"
    );
    assert!(stats.erasures >= stats.verify_failures);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: 5% post-CRC corruption on a real link.

#[test]
fn five_percent_post_crc_corruption_is_verified_away_on_a_real_link() {
    // Much bigger files than the in-process properties (m = 32): the
    // retrieval window spans enough slot datagrams that a 5% tamper rate
    // reliably mutates several victim blocks under the seeded plan.
    let files = (1..=2u32).map(|i| {
        GeneralizedFileSpec::new(FileId(i), 32, vec![320 + 32 * i]).expect("feasible spec")
    });
    let station = Broadcast::builder()
        .files(files)
        .channels(1)
        .authenticated(true)
        .build()
        .expect("the test specs are feasible");
    let victim = FileId(2);
    let expected = station
        .retrieve(victim, 0, &mut NoErrors)
        .expect("the reference retrieval completes")
        .data;

    let clock = ManualClock::new();
    let serving = station
        .serve_network_with(
            clock.clone(),
            RuntimeConfig::default(),
            NetConfig::default().with_control_plane(),
        )
        .expect("loopback serving binds");
    let link = ImpairedLink::spawn(
        serving.data_addr(),
        FaultPlan::seeded(0xB12A).down_tamper(0.05),
    )
    .expect("relay spawns");
    let config = RecoveryConfig {
        join_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        watchdog: Duration::from_millis(40),
        max_recoveries: 32,
        seed: 0xB12A,
        ..RecoveryConfig::default()
    }
    .with_control(serving.control_addr().expect("control plane configured"));
    let client =
        NetClient::join_with(link.client_addr(), victim, config).expect("client joins via relay");
    let mut budget = 200_000i64;
    while serving.net_stats().peers < 1 {
        std::thread::sleep(Duration::from_micros(50));
        budget -= 1;
        assert!(budget > 0, "the client never joined through the relay");
    }

    let retriever = std::thread::spawn(move || client.retrieve_with_stats(Duration::from_secs(30)));
    let stop = Arc::new(AtomicBool::new(false));
    let driver = std::thread::spawn({
        let clock = clock.clone();
        let stop = Arc::clone(&stop);
        move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(32);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    });
    let (result, stats) = retriever.join().expect("retriever thread exits");
    stop.store(true, Ordering::Relaxed);
    driver.join().expect("driver thread exits");
    let tampered = link.stats().down.tampered;
    link.shutdown();
    serving
        .shutdown()
        .expect("network serving shuts down cleanly");

    let outcome = result.expect("the authenticated retrieval completes");
    assert_eq!(
        outcome.data, expected,
        "5% post-CRC corruption must not reach the output bytes"
    );
    assert!(tampered > 0, "the scripted link must actually tamper");
    assert!(
        stats.verify_failures > 0,
        "corrupted blocks must be visible as typed verify failures \
         (link tampered {tampered} datagrams)"
    );
    assert!(
        stats.erasures >= stats.verify_failures,
        "every rejected block is booked as an erasure"
    );
}

/// `len` bytes of a xorshift stream: content with no period a dispersal's
/// block boundaries could line up with.
fn xorshift_bytes(len: usize, seed: u32) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 24) as u8
        })
        .collect()
}

fn hex(root: &Root) -> String {
    root.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn paired_leaf_hashes_equal_one_leaf_at_a_time() {
    // Payload lengths around every SHA-256 padding boundary a 25-byte leaf
    // header creates, and a whole 16 KiB leaf.
    let lengths = [0usize, 38, 39, 40, 54, 55, 56, 103, 119, 120, 16_384];
    let payload =
        |len: usize, index: u32| xorshift_bytes(len, 0x5EED ^ index.wrapping_mul(977) ^ len as u32);
    let one_at_a_time = |blocks: &[(u32, Vec<u8>)]| -> Vec<Root> {
        blocks
            .iter()
            .map(|(index, p)| rtbdisk::bauth::leaf_hash(3, *index, 5, 9, 77_777, p))
            .collect()
    };
    let batched = |blocks: &[(u32, Vec<u8>)]| {
        rtbdisk::bauth::leaf_hashes(3, 5, 9, 77_777, blocks.iter().map(|(i, p)| (*i, &p[..])))
    };
    for &len in &lengths {
        for count in [1usize, 2, 3, 4, 7] {
            let blocks: Vec<(u32, Vec<u8>)> =
                (0..count as u32).map(|i| (i, payload(len, i))).collect();
            assert_eq!(
                batched(&blocks),
                one_at_a_time(&blocks),
                "{count} leaves of {len} bytes"
            );
        }
    }
    // Unequal lengths in one batch: runs of equal lengths pair up, odd ones
    // out are hashed alone, and the order is the input's.
    let mixed: Vec<(u32, Vec<u8>)> = [55usize, 55, 56, 0, 0, 0, 120, 16_384, 16_384, 39, 40, 40]
        .iter()
        .enumerate()
        .map(|(i, &len)| (i as u32 * 3, payload(len, i as u32)))
        .collect();
    assert_eq!(batched(&mixed), one_at_a_time(&mixed));
    assert!(batched(&[]).is_empty());
}

/// Roots recorded before dispersal hashed leaves in pairs and, for large
/// files, beside the coding: the commitment a client checks against must
/// not drift with how the station computes it.
#[test]
fn authenticated_dispersal_roots_are_pinned() {
    let cases = [
        // 1 MiB at (64, 68): 1 088 KiB of leaves, hashed beside the coding.
        (
            64,
            68,
            1usize << 20,
            1,
            0x9E37_79B9,
            "ea63feb28c0be097a5aa3730c9d091af9b4cdfbe979431558c338aabf1d500b5",
        ),
        // A padded last block, also beside the coding.
        (
            64,
            68,
            (1 << 20) - 1000,
            3,
            7,
            "6b9080af73bec68377e36acdf5e750370244030a98f2aab32a0cfb432a5dc301",
        ),
        // 256 KiB at (16, 18): 288 KiB of leaves, on the calling thread.
        (
            16,
            18,
            256 << 10,
            2,
            0x2545_F491,
            "5b9a76092cecbddc3e3e07cadabf64649dbc41d414b5226ed94f044baf51ec44",
        ),
    ];
    for (m, n, len, file, seed, pinned) in cases {
        let dispersal = Dispersal::authenticated(m, n).expect("valid (m, n)");
        let dispersed = dispersal
            .disperse(FileId(file), &xorshift_bytes(len, seed))
            .expect("disperses");
        let root = dispersed.commitment_root().expect("authenticated commits");
        assert_eq!(hex(&root), pinned, "({m}, {n}) of {len} bytes");
    }
}

/// A 1 MiB authenticated dispersal — hashed on two threads — equals one
/// built serially from the public pieces: the unauthenticated payloads,
/// one `leaf_hash` per block, one `CommitPlan` tree.
#[test]
fn threaded_and_serial_dispersal_give_identical_files() {
    let (m, n) = (64, 68);
    let data = xorshift_bytes((1 << 20) - 1000, 11);
    let threaded = Dispersal::authenticated(m, n)
        .expect("valid (m, n)")
        .disperse(FileId(5), &data)
        .expect("disperses");

    let plain = Dispersal::new(m, n)
        .expect("valid (m, n)")
        .disperse(FileId(5), &data)
        .expect("disperses");
    let leaves: Vec<Root> = plain
        .blocks()
        .iter()
        .map(|b| {
            rtbdisk::bauth::leaf_hash(
                5,
                b.index(),
                m as u32,
                n as u32,
                data.len() as u64,
                b.payload(),
            )
        })
        .collect();
    let commitment = rtbdisk::bauth::CommitPlan::new(n)
        .expect("n fits a plan")
        .commit(&leaves);
    let serial: Vec<DispersedBlock> = plain
        .blocks()
        .iter()
        .map(|b| {
            let proof = commitment
                .proof(b.index() as usize)
                .expect("inside the tree");
            b.clone().with_proof(Arc::new(proof))
        })
        .collect();

    assert_eq!(threaded.commitment_root(), Some(commitment.root()));
    assert_eq!(
        threaded.blocks(),
        &serial[..],
        "payloads, headers and proofs"
    );
}

// ---------------------------------------------------------------------------
// Paired verification equals verification on arrival.

/// One input of the paired-verification property.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Block `index` of the content, honest or with one payload bit flipped,
    /// in the next slot.
    Block { index: usize, tampered: bool },
    /// A retune to the same channel, epoch, `(m, n)` and root.
    Retune,
}

/// How a run ended: the completion slot, the stored indices (observable
/// before completion only, so empty after it), the stored block count, the
/// reconstructed bytes and the verify failures.
#[derive(Debug, PartialEq, Eq)]
struct Ending {
    completion_slot: Option<usize>,
    stored: Vec<u32>,
    count: usize,
    bytes: Option<Vec<u8>>,
    verify_failures: usize,
}

/// The reference: every block of the file checked alone on arrival, a copy
/// of a stored index ignored unhashed — what an armed session did before
/// it held blocks back to pair their leaf hashes.
fn eager(
    dispersal: &Dispersal,
    root: &Root,
    blocks: impl Iterator<Item = (usize, DispersedBlock)>,
) -> Ending {
    let mut stored = std::collections::BTreeMap::new();
    let (mut completion_slot, mut verify_failures) = (None, 0);
    for (slot, block) in blocks {
        if completion_slot.is_some() || stored.contains_key(&block.index()) {
            continue;
        }
        if !dispersal.verify_block(root, &block) {
            verify_failures += 1;
            continue;
        }
        stored.insert(block.index(), block);
        if stored.len() >= dispersal.threshold() {
            completion_slot = Some(slot);
        }
    }
    let blocks: Vec<DispersedBlock> = stored.values().cloned().collect();
    Ending {
        completion_slot,
        stored: match completion_slot {
            Some(_) => Vec::new(),
            None => stored.keys().copied().collect(),
        },
        count: stored.len(),
        bytes: completion_slot.map(|_| dispersal.reconstruct(&blocks).expect("reconstructs")),
        verify_failures,
    }
}

/// Runs `events` through the eager reference, a `ClientSession` and a
/// `ClientState` fed fragmented datagrams, each ending with a retune to
/// the same tuning (which checks a block still held back).  Returns the
/// three endings and the state's erasure count.
fn run_three(
    dispersal: &Dispersal,
    file: &rtbdisk::ida::DispersedFile,
    events: &[Event],
) -> ([Ending; 3], u64) {
    let (m, n) = (dispersal.threshold(), dispersal.total_blocks());
    let root = file.commitment_root().expect("authenticated");
    let info = SubscriptionInfo::new(0, 1, m as u32, n as u32).with_root(root);
    // Blocks take consecutive slots; a retune takes none.
    let mut slot = 0;
    let timed: Vec<(usize, Option<DispersedBlock>)> = events
        .iter()
        .map(|event| match *event {
            Event::Block {
                index,
                tampered: flipped,
            } => {
                let block = &file.blocks()[index];
                slot += 1;
                let block = if flipped {
                    tampered(block)
                } else {
                    block.clone()
                };
                (slot, Some(block))
            }
            Event::Retune => (slot, None),
        })
        .collect();
    let reference = eager(
        dispersal,
        &root,
        timed
            .iter()
            .filter_map(|(slot, b)| Some((*slot, b.clone()?))),
    );

    let mut session = ClientSession::new(file.file(), 0, 0);
    session.retune(0, 1, Some((m, n)), Some(root));
    for (slot, block) in &timed {
        match block {
            Some(block) => {
                session.ingest(Observation::Block {
                    slot: *slot,
                    block,
                    received_ok: true,
                    proof: None,
                });
            }
            None => session.retune(0, 1, Some((m, n)), Some(root)),
        }
    }
    session.retune(0, 1, Some((m, n)), Some(root));
    let outcome = session.finish(dispersal).ok();
    let session_end = Ending {
        completion_slot: outcome.as_ref().map(|o| o.completion_slot),
        stored: match session.is_complete() {
            true => Vec::new(),
            false => (0..n as u32).filter(|&i| !session.needs(i)).collect(),
        },
        count: session.blocks_received(),
        bytes: outcome.map(|o| o.data),
        verify_failures: session.verify_failures(),
    };

    let mut state = ClientState::new(file.file());
    state.feed_frame(Frame::Control(ControlFrame::SubscribeAck {
        file: file.file(),
        info,
    }));
    for (slot, block) in &timed {
        match block {
            Some(block) => {
                let frame = Frame::Slot(SlotFrame {
                    epoch: 1,
                    channel: 0,
                    slot: *slot as u64,
                    block: block.clone(),
                });
                for datagram in datagrams(&frame, 256, *slot as u64) {
                    state.feed_datagram(&datagram);
                }
            }
            None => state.resubscribe(info, 0),
        }
    }
    state.resubscribe(info, 0);
    let outcome = state.finish().ok();
    // The state shows no stored indices; the session's stand in, checked
    // by the count.
    let state_end = Ending {
        completion_slot: outcome.as_ref().map(|o| o.completion_slot),
        stored: session_end.stored.clone(),
        count: state.blocks_received(),
        bytes: outcome.map(|o| o.data),
        verify_failures: state.stats().verify_failures as usize,
    };
    ([reference, session_end, state_end], state.stats().erasures)
}

#[test]
fn paired_verification_equals_verification_on_arrival() {
    let dispersal = Dispersal::authenticated(5, 9).expect("5-of-9 is valid");
    let data = xorshift_bytes(5 * 700 - 3, 0xA11CE);
    let file = dispersal.disperse(FileId(4), &data).expect("disperses");
    let good = |index| Event::Block {
        index,
        tampered: false,
    };
    let bad = |index| Event::Block {
        index,
        tampered: true,
    };
    let retune = Event::Retune;
    #[rustfmt::skip]
    let mut cases: Vec<(&str, Vec<Event>)> = vec![
        ("all honest", (0..9).map(good).collect()),
        ("a tampered held block", vec![good(0), bad(1), good(2), good(3), good(4), good(5)]),
        ("a tampered completing block", vec![good(0), good(1), good(2), good(3), bad(4), good(5)]),
        ("an honest copy after a tampered held copy", vec![good(0), bad(1), good(1), good(2), good(3), good(4)]),
        ("a tampered copy after an honest held copy", vec![good(0), good(1), bad(1), good(2), good(3), good(4)]),
        ("an odd number of own blocks", vec![good(0), good(1), good(2)]),
        ("a retune while a block is held", vec![good(0), good(1), retune, good(2), good(3), good(4)]),
        ("a retune while a tampered block is held", vec![good(0), bad(1), retune, good(2), good(3), good(4), good(5)]),
        ("a tampered first block", vec![bad(0), good(0), good(1), good(2), good(3), good(4)]),
        ("nothing honest", (0..9).map(bad).collect()),
    ];
    let mut rng = StdRng::seed_from_u64(0x9A12_ED00);
    for _ in 0..300 {
        let len = rng.gen_range(1..24);
        let events = (0..len)
            .map(|_| match rng.gen_range(0..10) {
                0 => retune,
                k => Event::Block {
                    index: rng.gen_range(0..9),
                    tampered: k <= 3,
                },
            })
            .collect();
        cases.push(("seeded", events));
    }
    let mut completed = 0;
    for (name, events) in &cases {
        let ([reference, session, state], erasures) = run_three(&dispersal, &file, events);
        assert_eq!(session, reference, "{name}: ClientSession, {events:?}");
        assert_eq!(state, reference, "{name}: ClientState, {events:?}");
        assert_eq!(
            erasures, reference.verify_failures as u64,
            "{name}: erasures, {events:?}"
        );
        if let Some(bytes) = &reference.bytes {
            assert_eq!(bytes, &data, "{name}: no tampered payload is stored");
            completed += 1;
        }
    }
    assert!(
        completed > 50,
        "{completed} of {} runs completed",
        cases.len()
    );
}
