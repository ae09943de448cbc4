//! Properties of the wire transport (`bnet`) against the synchronous
//! station — the paper's central claim carried onto a real medium:
//!
//! * **loss-as-erasure equivalence** — a lossy in-memory "socket" (the
//!   channel's wire stream with a seeded drop pattern) resolves
//!   byte-identically to the serial drive losing the *same* receptions
//!   through an error model;
//! * **corruption is loss** — flipping bytes in a datagram instead of
//!   dropping it yields the same reconstruction and the same erasure count
//!   (the decoder rejects the datagram, the gap it leaves is booked once);
//! * **fragmentation is transparent** — a tiny MTU that forces every slot
//!   frame through the fragment path reconstructs identically.
//!
//! * **a forged-fragment flood is bounded** — fragments of frames that
//!   never complete cost at most the reassembly byte cap, count as
//!   erasures, and leave a genuine retrieval byte-identical.
//! * **the wire's erasure count is an upper bound** — a lossless wire
//!   completes in the drive's slot while booking at least the drive's
//!   erasures.
//!
//! All of them feed [`rtbdisk::bnet::ClientState`] directly: the state
//! machine is socket-free, so the deterministic in-memory wire is exactly
//! what a `UdpSocket` would deliver, minus the non-determinism.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtbdisk::bnet::wire::{
    crc32, datagrams, decode, encode, ControlFrame, Frame, Packet, Reassembler, SlotFrame,
    SubscriptionInfo, MAX_REASSEMBLY_BYTES,
};
use rtbdisk::bnet::ClientState;
use rtbdisk::{Broadcast, ErrorModel, FileId, GeneralizedFileSpec, Station, TransmissionRef};

/// A precomputed loss pattern: reception `i` is lost iff `pattern[i]`.
/// The serial drive samples it once per live `(slot, channel)` in slot
/// order — the same order the wire leg consumes it in.
struct PatternErrors {
    pattern: Vec<bool>,
    next: usize,
}

impl PatternErrors {
    fn new(pattern: Vec<bool>) -> Self {
        PatternErrors { pattern, next: 0 }
    }
}

impl ErrorModel for PatternErrors {
    fn is_lost(&mut self, _transmission: TransmissionRef<'_>) -> bool {
        let lost = self.pattern.get(self.next).copied().unwrap_or(false);
        self.next += 1;
        lost
    }
}

fn station_case(case: usize) -> Station {
    station_of(case, 1)
}

/// [`station_case`] with files of `size` blocks each.
fn station_of(case: usize, size: u32) -> Station {
    let channels = [1, 2][case % 2];
    let files = (1..=(2 * channels) as u32).map(|i| {
        let d = size * (10 + 3 * i);
        GeneralizedFileSpec::new(FileId(i), size, vec![d, d + 5 * size]).expect("feasible spec")
    });
    Broadcast::builder()
        .files(files)
        .channels(channels)
        .build()
        .expect("the case specs are feasible")
}

/// The wire stream of one channel from slot `from`: every live
/// transmission encoded as a slot-frame datagram, in slot order, up to
/// `limit` receptions.
fn wire_stream(
    station: &Station,
    channel: u16,
    epoch: u64,
    from: usize,
    limit: usize,
) -> Vec<Vec<u8>> {
    station
        .stream_channel(channel as usize, from)
        .expect("the directory names a real channel")
        .filter_map(|(_, tx)| tx)
        .take(limit)
        .map(|tx| {
            encode(&Frame::Slot(SlotFrame::from_transmission(
                channel, epoch, tx,
            )))
        })
        .collect()
}

#[test]
fn lossy_wire_resolves_byte_identically_to_the_serial_bernoulli_drive() {
    let mut rng = StdRng::seed_from_u64(0x03E7_0001);
    for case in 0..8 {
        let station = station_case(case);
        for spec in station.specs() {
            let file = spec.id;
            let info = station.network_directory()[&file.0];
            let pattern: Vec<bool> = (0..station.listen_cap())
                .map(|_| rng.gen_bool(0.25))
                .collect();

            // The reference: the synchronous station losing exactly the
            // receptions the pattern marks.
            let mut fleet = vec![station.subscribe(file, 0).unwrap()];
            let expected = station
                .run_until_complete(&mut fleet, &mut PatternErrors::new(pattern.clone()))
                .unwrap()
                .pop()
                .unwrap();

            // The wire: the same channel's datagram stream through a lossy
            // in-memory socket dropping the same receptions.
            let mut state = ClientState::new(file);
            for (i, datagram) in wire_stream(&station, info.channel, info.epoch, 0, pattern.len())
                .iter()
                .enumerate()
            {
                if pattern[i] {
                    continue; // the medium ate this datagram
                }
                if state.feed_datagram(datagram) {
                    break;
                }
            }
            let outcome = state.finish().expect("the wire leg reconstructs");
            assert_eq!(state.stats().erasures, outcome.errors_observed as u64);
            assert_eq!(
                outcome.data, expected.data,
                "case {case} file {file}: wire loss and serial-drive loss must \
                 resolve to the same bytes"
            );
            assert_eq!(state.blocks_received(), info.m as usize);
            assert_eq!(state.params(), Some((info.m, info.n)));
        }
    }
}

#[test]
fn corrupted_datagrams_resolve_like_dropped_ones() {
    let mut rng = StdRng::seed_from_u64(0x03E7_0002);
    let mut corrupted_total = 0;
    for case in 0..6 {
        // Files of several blocks, so the retrieval listens long enough
        // for the pattern to mark some of its datagrams.
        let station = station_of(case, 4 + case as u32);
        let spec = &station.specs()[case % station.specs().len()];
        let file = spec.id;
        let info = station.network_directory()[&file.0];
        let pattern: Vec<bool> = (0..station.listen_cap())
            .map(|_| rng.gen_bool(0.2))
            .collect();

        let mut fleet = vec![station.subscribe(file, 0).unwrap()];
        let expected = station
            .run_until_complete(&mut fleet, &mut PatternErrors::new(pattern.clone()))
            .unwrap()
            .pop()
            .unwrap();

        // Same drop pattern, but instead of vanishing, the marked datagrams
        // arrive corrupted: a flipped byte somewhere in the body.  The client
        // joins at slot 1, so the join ack's resync gives its gap detector a
        // baseline before the first datagram.
        let stream = wire_stream(&station, info.channel, info.epoch, 1, pattern.len());
        let mut state = joined(file, info, 1);
        let mut corrupted_fed = 0u64;
        for (i, datagram) in stream.iter().enumerate() {
            let done = if pattern[i] {
                let mut garbled = datagram.clone();
                let at = rng.gen_range(0..garbled.len());
                garbled[at] ^= 0x5A;
                corrupted_fed += 1;
                state.feed_datagram(&garbled)
            } else {
                state.feed_datagram(datagram)
            };
            if done {
                break;
            }
        }
        let outcome = state
            .finish()
            .expect("corruption is absorbed exactly like loss");
        assert_eq!(outcome.data, expected.data, "case {case} file {file}");
        // Every corrupted datagram the decoder saw was rejected and counted.
        assert_eq!(state.stats().decode_errors, corrupted_fed);
        assert!(state.stats().erasures >= corrupted_fed);
        assert_eq!(state.stats().erasures, outcome.errors_observed as u64);
        corrupted_total += corrupted_fed;

        // The marked datagrams dropped instead: the same erasures, one per
        // lost slot, whether the slot's datagram vanished or arrived
        // garbled.
        let mut dropped = joined(file, info, 1);
        let kept = stream.iter().zip(&pattern).filter(|(_, &lost)| !lost);
        for (datagram, _) in kept {
            if dropped.feed_datagram(datagram) {
                break;
            }
        }
        let dropped = dropped.finish().expect("loss is absorbed");
        assert_eq!(
            (dropped.completion_slot, dropped.errors_observed),
            (outcome.completion_slot, outcome.errors_observed),
            "case {case} file {file}: corrupted and dropped datagrams"
        );
    }
    assert!(
        corrupted_total > 0,
        "the suite corrupts no datagram it feeds"
    );
}

/// A client of `file` as a join leaves it when the station's next slot is
/// `next_slot`: tuned by the control plane's subscribe ack, its gap
/// detector baselined by the join ack's resync.
fn joined(file: FileId, info: SubscriptionInfo, next_slot: u64) -> ClientState {
    let mut state = ClientState::new(file);
    state.feed_frame(Frame::Control(ControlFrame::SubscribeAck { file, info }));
    state.feed_frame(Frame::Control(ControlFrame::Resync {
        epoch: info.epoch,
        next_slot,
    }));
    state
}

#[test]
fn fragmentation_under_a_tiny_mtu_is_transparent() {
    for case in 0..4 {
        let station = station_case(case);
        let spec = &station.specs()[case % station.specs().len()];
        let file = spec.id;
        let info = station.network_directory()[&file.0];

        let mut fleet = vec![station.subscribe(file, 0).unwrap()];
        let expected = station
            .run_until_complete(&mut fleet, &mut rtbdisk::NoErrors)
            .unwrap()
            .pop()
            .unwrap();

        // An MTU far below the block size: every slot frame fragments.
        let mut state = ClientState::new(file);
        let stream = station
            .stream_channel(info.channel as usize, 0)
            .unwrap()
            .filter_map(|(_, tx)| tx)
            .take(station.listen_cap());
        'outer: for (seq, tx) in stream.enumerate() {
            let frame = Frame::Slot(SlotFrame::from_transmission(info.channel, info.epoch, tx));
            let pieces = datagrams(&frame, 96, seq as u64);
            assert!(pieces.len() > 1, "a 96-byte MTU must fragment the frame");
            for piece in &pieces {
                if state.feed_datagram(piece) {
                    break 'outer;
                }
            }
        }
        let outcome = state.finish().expect("fragments reassemble losslessly");
        assert_eq!(outcome.data, expected.data, "case {case} file {file}");
        assert_eq!(state.stats().erasures, 0, "a lossless wire has no erasures");
    }
}

/// A fragment datagram as anyone on the medium can build one: wire v1,
/// kind 0x02, `seq, index, count, chunk_len, chunk`, CRC-32 sealed.
fn forged_fragment(seq: u64, index: u16, count: u16, chunk: &[u8]) -> Vec<u8> {
    let mut out = b"BNET\x01\x02".to_vec();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
    out.extend_from_slice(chunk);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn a_forged_fragment_flood_is_capped_and_a_genuine_retrieval_still_completes() {
    let station = station_case(0);
    let file = station.specs()[0].id;
    let info = station.network_directory()[&file.0];
    let mut fleet = vec![station.subscribe(file, 0).unwrap()];
    let expected = station
        .run_until_complete(&mut fleet, &mut rtbdisk::NoErrors)
        .unwrap()
        .pop()
        .unwrap();

    // Three caps' worth of 60 KB fragments, in groups that announce 4 095
    // fragments and never complete, under sequence numbers above any the
    // station will use.
    let chunk = vec![0xA5u8; 60_000];
    let per_group = 64u16;
    let groups = 3 * MAX_REASSEMBLY_BYTES / (per_group as usize * chunk.len()) + 1;
    let mut reassembler = Reassembler::new(16);
    let mut state = ClientState::new(file);
    for group in 0..groups as u64 {
        for index in 0..per_group {
            let datagram = forged_fragment(u64::MAX - group, index, 4095, &chunk);
            assert!(!state.feed_datagram(&datagram));
            let Ok(Packet::Fragment(fragment)) = decode(&datagram) else {
                panic!("a forged fragment decodes as a fragment");
            };
            assert!(reassembler.offer(fragment).is_none());
            assert!(
                reassembler.held_bytes() <= MAX_REASSEMBLY_BYTES,
                "{} bytes held after group {group} fragment {index}",
                reassembler.held_bytes()
            );
        }
    }
    assert!(
        state.stats().erasures > 0,
        "evicted forged frames count as erasures"
    );

    // The genuine stream, every frame fragmented, through the same client.
    let stream = station
        .stream_channel(info.channel as usize, 0)
        .unwrap()
        .filter_map(|(_, tx)| tx)
        .take(station.listen_cap());
    'outer: for (seq, tx) in stream.enumerate() {
        let frame = Frame::Slot(SlotFrame::from_transmission(info.channel, info.epoch, tx));
        for piece in &datagrams(&frame, 96, seq as u64) {
            if state.feed_datagram(piece) {
                break 'outer;
            }
        }
    }
    let outcome = state
        .finish()
        .expect("the genuine retrieval completes after the flood");
    assert_eq!(outcome.data, expected.data);
}

// ---------------------------------------------------------------------------
// Dropping at fragment 0.

/// `m` for the two-file streams below: more own frames than a client keeps
/// partial groups, so a leaked group would be evicted as a decode error.
const TWO_FILE_M: usize = 20;

/// Two plain files of 20-of-24 dispersal, their blocks alternating on
/// channel 0 — the client's (file 1) at even slots, another's (file 2) at
/// odd ones — each frame cut at a 96-byte MTU into fragments under its
/// slot as sequence number.  Returns the client's content and the frames.
fn two_file_fragments() -> (Vec<u8>, Vec<Vec<Vec<u8>>>) {
    let dispersal = rtbdisk::ida::Dispersal::new(TWO_FILE_M, TWO_FILE_M + 4).expect("valid");
    let mut contents: Vec<Vec<u8>> = (1..=2u8)
        .map(|salt| (0..TWO_FILE_M * 150).map(|i| (i as u8) ^ salt).collect())
        .collect();
    let files: Vec<_> = contents
        .iter()
        .zip(1..)
        .map(|(data, id)| dispersal.disperse(FileId(id), data).expect("disperses"))
        .collect();
    let frames = (0..2 * (TWO_FILE_M + 4))
        .map(|slot| {
            let frame = Frame::Slot(SlotFrame {
                epoch: 1,
                channel: 0,
                slot: slot as u64,
                block: files[slot % 2].blocks()[slot / 2].clone(),
            });
            let pieces = datagrams(&frame, 96, slot as u64);
            assert!(pieces.len() >= 3, "every frame fragments");
            pieces
        })
        .collect();
    (contents.swap_remove(0), frames)
}

/// Feeds `frames` (each frame's datagrams in the order given) to a client
/// of file 1 until it completes.
fn feed_frames(frames: impl IntoIterator<Item = Vec<Vec<u8>>>) -> ClientState {
    let mut state = ClientState::new(FileId(1));
    'frames: for frame in frames {
        for datagram in &frame {
            if state.feed_datagram(datagram) {
                break 'frames;
            }
        }
    }
    state
}

#[test]
fn dropping_at_fragment_0_keeps_the_wire_accounting_exact() {
    let (content, frames) = two_file_fragments();
    // Every own block arrives: the m-th is in slot 2 (m − 1).
    let done_at = 2 * (TWO_FILE_M - 1);

    // A loss-free interleaved stream.
    let state = feed_frames(frames.clone());
    let outcome = state.finish().expect("completes");
    assert_eq!(
        (outcome.data, outcome.completion_slot),
        (content.clone(), done_at)
    );
    let stats = state.stats();
    assert_eq!(
        (stats.gap_erasures, stats.erasures, stats.decode_errors),
        (0, 0, 0)
    );
    assert_eq!(
        stats.slot_frames,
        done_at as u64 + 1,
        "every frame is heard"
    );

    // Later fragments before fragment 0: every foreign frame's fragment 0
    // comes last.  Its earlier fragments are released when it arrives, so
    // no group lingers to be evicted as a loss.
    let late_zero = frames.iter().enumerate().map(|(slot, frame)| {
        let mut frame = frame.clone();
        if slot % 2 == 1 {
            frame.rotate_left(1);
        }
        frame
    });
    let state = feed_frames(late_zero);
    let outcome = state.finish().expect("completes");
    assert_eq!(
        (outcome.data, outcome.completion_slot),
        (content.clone(), done_at)
    );
    assert_eq!(
        (state.stats().erasures, state.stats().decode_errors),
        (0, 0)
    );

    // A lost fragment 0, of a foreign and of an own frame: the frame is
    // lost, one erasure each (the gap its slot leaves), and what is left
    // of it stays within the reassembly bound.
    for lost in [3, 4] {
        let mut reassembler = Reassembler::new(16);
        let delivered: Vec<Vec<Vec<u8>>> = frames
            .iter()
            .enumerate()
            .map(|(slot, frame)| frame[usize::from(slot == lost)..].to_vec())
            .collect();
        for datagram in delivered.iter().flatten() {
            let Ok(Packet::Fragment(fragment)) = decode(datagram) else {
                panic!("every datagram is a fragment");
            };
            reassembler.offer(fragment);
            assert!(reassembler.held_bytes() <= MAX_REASSEMBLY_BYTES);
        }
        let state = feed_frames(delivered);
        let outcome = state.finish().expect("completes");
        let late = if lost % 2 == 0 { 2 } else { 0 };
        assert_eq!(
            (outcome.data, outcome.completion_slot),
            (content.clone(), done_at + late),
            "fragment 0 of slot {lost} lost"
        );
        let stats = state.stats();
        assert_eq!(
            (stats.gap_erasures, stats.erasures),
            (1, 1),
            "fragment 0 of slot {lost} lost"
        );
    }
}

#[test]
fn a_forged_fragment_0_naming_another_file_costs_at_most_one_erasure() {
    let (content, frames) = two_file_fragments();
    // Fragment 0 of the foreign frame in slot 1, resealed under the
    // sequence number of the own frame in slot `own`: it names file 2.
    let forge = |own: usize| -> Vec<u8> {
        let Ok(Packet::Fragment(foreign)) = decode(&frames[1][0]) else {
            panic!("a fragment");
        };
        let Ok(Packet::Fragment(genuine)) = decode(&frames[own][0]) else {
            panic!("a fragment");
        };
        assert_eq!(foreign.count, genuine.count, "one frame shape");
        forged_fragment(own as u64, 0, genuine.count, &foreign.chunk)
    };
    // Before the genuine fragment 0, after it, and after the genuine later
    // fragments but before the genuine fragment 0.
    for (own, placement) in [(4, 0), (6, 1), (8, 2)] {
        let mut stream = frames.clone();
        let frame = &mut stream[own];
        match placement {
            0 => frame.insert(0, forge(own)),
            1 => frame.insert(1, forge(own)),
            _ => {
                frame.rotate_left(1);
                let last = frame.len() - 1;
                frame.insert(last, forge(own));
            }
        }
        let state = feed_frames(stream);
        let outcome = state.finish().expect("completes");
        assert_eq!(
            outcome.data, content,
            "placement {placement}: never wrong bytes"
        );
        assert!(
            state.stats().erasures <= 1,
            "placement {placement}: {:?}",
            state.stats()
        );
    }
}

#[test]
fn the_wire_completes_with_the_drive_and_books_at_least_its_erasures() {
    // Item 15 of the roadmap: a frame does not say how many frames its lane
    // carried before it, so the gap detector books every idle slot and
    // every slot of another file on the channel as an erasure of its own
    // retrieval.  On this lossless case the drive books 0 and the wire 1 or
    // 2, yet both complete in the same slot.  A per-lane frame counter on
    // the wire would make the two counts equal.
    for channels in [1, 2] {
        let files = (1..=2).map(|i| GeneralizedFileSpec::new(FileId(i), 2, vec![8, 9]).unwrap());
        let station = Broadcast::builder()
            .files(files)
            .channels(channels)
            .build()
            .expect("two m = 2 files fit");
        for spec in station.specs() {
            let file = spec.id;
            let info = station.network_directory()[&file.0];
            let mut fleet = vec![station.subscribe(file, 0).unwrap()];
            let expected = station
                .run_until_complete(&mut fleet, &mut rtbdisk::NoErrors)
                .unwrap()
                .pop()
                .unwrap();

            let mut state = joined(file, info, 0);
            for datagram in wire_stream(&station, info.channel, info.epoch, 0, station.listen_cap())
            {
                if state.feed_datagram(&datagram) {
                    break;
                }
            }
            let outcome = state.finish().expect("a lossless wire completes");
            assert_eq!(
                outcome.data, expected.data,
                "{channels} channels, file {file}"
            );
            assert_eq!(
                outcome.completion_slot, expected.completion_slot,
                "{channels} channels, file {file}"
            );
            assert!(
                outcome.errors_observed >= expected.errors_observed,
                "{channels} channels, file {file}: wire {} < drive {}",
                outcome.errors_observed,
                expected.errors_observed
            );
        }
    }
}
