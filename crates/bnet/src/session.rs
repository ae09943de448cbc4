//! The socket-free client: transport only.
//!
//! [`ClientState`] turns a stream of raw datagrams into a completed
//! retrieval.  The retrieval itself — file, tuning, `(m, n)`, commitment
//! root, collected blocks, erasure count and the keep-or-restart rule
//! across an epoch change — is a [`ClientSession`]; this wrapper adds only
//! what the wire needs: it decodes packets, reassembles fragments, hands
//! blocks of its file to the session, flags a newer epoch on its channel
//! as stale, and — the heart of the paper's model — turns everything that
//! goes wrong on the medium into *erasures* rather than failures.
//!
//! A datagram costs in proportion to what the session keeps from it.  A
//! slot frame names its block in its header, and for a fragmented frame
//! fragment 0 carries that header: a frame of another file, of an index
//! the session holds, or arriving after completion feeds only the gap
//! detector and the staleness check.  Its group is dropped there, and its
//! later fragments are skipped without a checksum or a copy.  A kept
//! frame's chunks are written once into one buffer, and the block's
//! payload is a view of it.
//!
//! Erasures — one per lost slot:
//!
//! * a gap in the slot numbering of the client's channel counts as one
//!   erasure per missing slot.  The wire carries no per-lane frame count,
//!   so a gap cannot tell a lost frame of the client's file from a lost
//!   frame of another file or from an idle slot (the fan-out sends nothing
//!   for a lane with no block): the wire's `errors_observed` is an upper
//!   bound on the paper's `r`, not `r` itself;
//! * a block that fails its inclusion proof counts as one (the session
//!   books it);
//! * a datagram that fails to decode (corrupt, short, foreign, or a control
//!   note of a retired opcode) and an evicted fragment group (a frame that
//!   will never complete) count as decode errors.  Once the gap detector
//!   has a baseline, that is all they cost: a lost frame of the client's
//!   channel leaves a gap that books its slot, and one of another channel
//!   costs the retrieval nothing.  Before a baseline, with no gap to book
//!   it, each also counts as one erasure.
//!
//! Erasures go straight into the session, also before the dispersal
//! parameters are known, so `errors_observed` is faithful from the first
//! listened slot; [`ClientStats::erasures`] reads it there.  Being
//! socket-free, the state machine is driven identically by a real
//! `UdpSocket`, an in-memory lossy channel (see the property tests), or a
//! replay log.

use crate::error::NetError;
use crate::wire::{
    self, ControlFrame, FragmentView, Frame, PacketView, Reassembler, SlotFrame, SlotHead,
    SubscriptionInfo,
};
use bauth::Root;
use bdisk::{ClientSession, Observation, RetrievalOutcome};
use ida::{Dispersal, FileId};
use std::collections::BTreeMap;

/// Counters describing what a [`ClientState`] has seen.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Raw datagrams fed in.
    pub datagrams: u64,
    /// Slot frames successfully decoded (all channels).
    pub slot_frames: u64,
    /// Control frames successfully decoded.
    pub control_frames: u64,
    /// Datagrams that failed to decode (corrupt/short/foreign), and
    /// fragmented frames evicted before they came together.
    pub decode_errors: u64,
    /// Missing slots detected on the client's channel, each booked as an
    /// erasure: lost frames of the client's file, but also lost frames of
    /// other files and idle slots, which the fan-out sends nothing for —
    /// so an upper bound on the erasures the paper's `r` counts.
    pub gap_erasures: u64,
    /// Erasures the retrieval's session has booked, its `errors_observed`:
    /// one per missing slot on the client's channel, one per block that
    /// fails its inclusion proof, and — only before the gap detector has a
    /// baseline — one per decode error.
    pub erasures: u64,
    /// Blocks rejected because their Merkle inclusion proof failed against
    /// the file's commitment root (each is also counted as an erasure).
    pub verify_failures: u64,
    /// `Join` datagrams (re-)sent by the supervising client loop.
    pub rejoins: u64,
    /// Control-plane resync/resubscribe rounds completed.
    pub resyncs: u64,
    /// Times the liveness watchdog suspected a partition.
    pub partition_suspects: u64,
}

impl ClientStats {
    /// Publishes this snapshot into a [`bobs::Registry`] as
    /// `bnet_client_*` gauges, so a client process can expose its
    /// retrieval progress on the same metrics plane as a station.
    ///
    /// [`ClientState`] is single-threaded by design, so unlike the station
    /// structs these are not live registry-backed counters — the caller
    /// re-exports after feeding datagrams, and each export overwrites the
    /// previous point-in-time view.
    pub fn export_into(&self, registry: &bobs::Registry) {
        registry
            .gauge("bnet_client_datagrams")
            .set(self.datagrams as i64);
        registry
            .gauge("bnet_client_slot_frames")
            .set(self.slot_frames as i64);
        registry
            .gauge("bnet_client_control_frames")
            .set(self.control_frames as i64);
        registry
            .gauge("bnet_client_decode_errors")
            .set(self.decode_errors as i64);
        registry
            .gauge("bnet_client_gap_erasures")
            .set(self.gap_erasures as i64);
        registry
            .gauge("bnet_client_erasures")
            .set(self.erasures as i64);
        registry
            .gauge("bnet_client_verify_failures")
            .set(self.verify_failures as i64);
        registry
            .gauge("bnet_client_rejoins")
            .set(self.rejoins as i64);
        registry
            .gauge("bnet_client_resyncs")
            .set(self.resyncs as i64);
        registry
            .gauge("bnet_client_partition_suspects")
            .set(self.partition_suspects as i64);
    }
}

/// How many partial fragment groups a client keeps in flight.
const CLIENT_REASSEMBLY_GROUPS: usize = 16;

/// The socket-free retrieval state machine for one file: a
/// [`ClientSession`] plus the wire's reassembly, gap detection and epoch
/// staleness.
pub struct ClientState {
    session: ClientSession,
    reassembler: Reassembler,
    /// The gap detector's baseline: the newest slot heard on the session's
    /// channel (or the slot before a resync's `next_slot`).
    last_slot: Option<u64>,
    /// The newest slot heard on each channel while the session does not
    /// yet know its own: where its baseline stands once it tunes.
    untuned_heard: BTreeMap<u16, u64>,
    stale_epoch: Option<u64>,
    /// Every count but the two the session keeps (`erasures`,
    /// `verify_failures`), which [`ClientState::stats`] reads from it.
    stats: ClientStats,
}

impl ClientState {
    /// Starts retrieving `file`.  The channel and dispersal parameters are
    /// learned from the stream itself (block headers or a subscribe ack).
    pub fn new(file: FileId) -> Self {
        ClientState {
            session: ClientSession::new(file, 0, 0),
            reassembler: Reassembler::new(CLIENT_REASSEMBLY_GROUPS),
            last_slot: None,
            untuned_heard: BTreeMap::new(),
            stale_epoch: None,
            stats: ClientStats::default(),
        }
    }

    /// The file being retrieved.
    pub fn file(&self) -> FileId {
        self.session.file()
    }

    /// The dispersal parameters `(m, n)`, once learned.
    pub fn params(&self) -> Option<(u32, u32)> {
        self.session.params().map(|(m, n)| (m as u32, n as u32))
    }

    /// The channel carrying the file, once learned.
    pub fn channel(&self) -> Option<u16> {
        self.session.channel().map(|channel| channel as u16)
    }

    /// The file's commitment root, once learned from a subscribe ack —
    /// while set, every received block must carry a valid inclusion proof
    /// or it is booked as an erasure (verify-on-receive).
    pub fn commitment_root(&self) -> Option<Root> {
        self.session.expected_root()
    }

    /// Arms verify-on-receive against `root` out of band (e.g. a root
    /// pinned by the operator rather than learned from the station).
    pub fn require_root(&mut self, root: Root) {
        self.session.require_root(root);
    }

    /// The epoch the client's channel serves under, once learned.
    pub fn epoch(&self) -> Option<u64> {
        self.session.epoch()
    }

    /// A newer epoch seen on the wire than the one this session tuned to —
    /// the signature of a mode swap the client missed.  Cleared by
    /// [`ClientState::resubscribe`] or a subscribe ack.
    pub(crate) fn stale_epoch(&self) -> Option<u64> {
        self.stale_epoch
    }

    /// `true` once enough distinct blocks have been received.
    pub fn is_complete(&self) -> bool {
        self.session.is_complete()
    }

    /// What the state machine has seen so far.
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            erasures: self.session.errors_observed() as u64,
            verify_failures: self.session.verify_failures() as u64,
            ..self.stats
        }
    }

    /// Distinct blocks of the file received so far (verified, when a root
    /// is armed; see [`ClientSession::ingest`] for a block held back).
    pub fn blocks_received(&self) -> usize {
        self.session.blocks_received()
    }

    /// Feeds one raw datagram.  Returns `true` if it completed the
    /// retrieval.
    pub fn feed_datagram(&mut self, buf: &[u8]) -> bool {
        self.stats.datagrams += 1;
        if wire::peek_fragment(buf)
            .is_some_and(|(seq, index, count)| self.reassembler.skips(seq, index, count))
        {
            return false;
        }
        match wire::parse(buf) {
            Ok(PacketView::Slot(view)) if self.needs(view.head) => self.feed_slot(view.to_frame()),
            Ok(PacketView::Slot(view)) => {
                let head = view.head;
                self.hear(head.channel, head.epoch, head.slot);
                false
            }
            Ok(PacketView::Control(cf)) => self.feed_frame(Frame::Control(cf)),
            Ok(PacketView::Fragment(frag)) => self.feed_fragment(&frag),
            Err(_) => {
                self.lost_frames(1);
                false
            }
        }
    }

    fn feed_fragment(&mut self, frag: &FragmentView<'_>) -> bool {
        if frag.index == 0 {
            if let Some(head) = wire::peek_slot(frag.chunk).filter(|&head| !self.needs(head)) {
                self.reassembler.skip(frag.seq, frag.count);
                self.hear(head.channel, head.epoch, head.slot);
                return false;
            }
        }
        let before = self.reassembler.evicted();
        let complete = self.reassembler.offer_view(frag);
        self.lost_frames(self.reassembler.evicted() - before);
        match complete.map(wire::decode_reassembled) {
            Some(Ok(frame)) => self.feed_frame(frame),
            // A reassembled frame that decodes to garbage (or, nonsensically,
            // to another fragment) is a lost frame.
            Some(Err(_)) => {
                self.lost_frames(1);
                false
            }
            None => false,
        }
    }

    /// Whether the session could keep the block a slot header names.
    fn needs(&self, head: SlotHead) -> bool {
        head.file == self.file() && self.session.needs(head.index)
    }

    /// Books `count` datagrams or frames that never decoded.  Once the gap
    /// detector has a baseline, the slot such a frame leaves on the
    /// session's channel is booked by the gap, so they cost no erasure
    /// here: a slot is lost once.
    fn lost_frames(&mut self, count: u64) {
        self.stats.decode_errors += count;
        if self.last_slot.is_none() {
            self.note_erasures(count as usize);
        }
    }

    /// Feeds one already-decoded frame (the TCP control path and the
    /// in-memory property tests use this directly).
    pub fn feed_frame(&mut self, frame: Frame) -> bool {
        match frame {
            Frame::Slot(sf) => self.feed_slot(sf),
            Frame::Control(cf) => {
                self.stats.control_frames += 1;
                self.feed_control(cf);
                false
            }
        }
    }

    /// Counts a (re-sent) `Join` — bumped by the supervising client loop.
    pub(crate) fn note_rejoin(&mut self) {
        self.stats.rejoins += 1;
    }

    /// Counts a suspected partition (liveness watchdog fired).
    pub(crate) fn note_partition_suspect(&mut self) {
        self.stats.partition_suspects += 1;
    }

    /// Applies a fresh control-plane answer after a recovery round:
    /// re-baselines the gap detector at the station's `next_slot` (the
    /// slots missed while partitioned were already accounted — a resync
    /// must not double-count them) and retunes the session, which keeps
    /// the collected blocks only when `(m, n)` and the commitment root are
    /// unchanged ([`ClientSession::retune`]).
    pub fn resubscribe(&mut self, info: SubscriptionInfo, next_slot: u64) {
        self.stats.resyncs += 1;
        if let Some(baseline) = next_slot.checked_sub(1) {
            let baseline = self.last_slot.map_or(baseline, |last| last.max(baseline));
            self.last_slot = Some(baseline);
        }
        self.tune(info);
    }

    /// Finishes the retrieval: reconstructs the file.
    ///
    /// Fails with [`NetError::NoSignal`] if the dispersal parameters were
    /// never learned and [`NetError::Incomplete`] if too few blocks
    /// arrived.
    pub fn finish(&self) -> Result<RetrievalOutcome, NetError> {
        let file = self.file();
        let (m, n) = self.session.params().ok_or(NetError::NoSignal { file })?;
        if !self.is_complete() {
            return Err(NetError::Incomplete {
                file,
                received: self.blocks_received(),
                required: m,
            });
        }
        let dispersal = Dispersal::new(m, n)?;
        self.session.finish(&dispersal).map_err(NetError::Ida)
    }

    fn feed_slot(&mut self, sf: SlotFrame) -> bool {
        let ours = sf.block.file() == self.file();
        if ours && self.session.channel().is_none() {
            // The first block of the file tunes a client no ack tuned.
            let root = self.session.expected_root();
            self.session
                .retune(usize::from(sf.channel), sf.epoch, None, root);
            self.baseline_tuned_channel();
        }
        self.hear(sf.channel, sf.epoch, sf.slot);
        if !ours {
            return false;
        }
        self.session
            .ingest(Observation::Block {
                slot: sf.slot as usize,
                block: &sf.block,
                received_ok: true,
                proof: None,
            })
            .completed()
    }

    /// Books one slot frame heard: the slot counter and the epoch of the
    /// session's channel.
    fn hear(&mut self, channel: u16, epoch: u64, slot: u64) {
        self.stats.slot_frames += 1;
        let Some(tuned) = self.session.channel() else {
            let newest = self.untuned_heard.entry(channel).or_insert(slot);
            *newest = (*newest).max(slot);
            return;
        };
        if tuned != usize::from(channel) {
            return;
        }
        // Lost-datagram detection: a jump in the slot numbering of *our*
        // channel means the intervening slots never arrived — lost on the
        // medium, or idle (the fan-out sends nothing for them), which the
        // wire cannot tell apart.
        if let Some(last) = self.last_slot {
            if slot > last + 1 {
                let gap = (slot - last - 1) as usize;
                self.stats.gap_erasures += gap as u64;
                self.note_erasures(gap);
            }
        }
        if self.last_slot.is_none_or(|last| slot > last) {
            self.last_slot = Some(slot);
        }
        // A *newer* epoch on our channel means a mode swap happened —
        // flagged stale so a supervising loop can resync, never an error
        // (the frames themselves still carry valid blocks).
        if self.session.epoch().is_some_and(|known| epoch > known) {
            self.stale_epoch = Some(epoch);
        }
    }

    fn feed_control(&mut self, cf: ControlFrame) {
        match cf {
            ControlFrame::SubscribeAck { file, info } if file == self.file() => self.tune(info),
            // Baseline the gap detector so pre-join slots don't count as
            // losses.
            ControlFrame::Resync { next_slot, .. } if self.last_slot.is_none() && next_slot > 0 => {
                self.last_slot = Some(next_slot - 1);
            }
            _ => {}
        }
    }

    /// Tunes the session to a control-plane answer, which also answers any
    /// staleness seen on the wire.
    fn tune(&mut self, info: SubscriptionInfo) {
        self.stale_epoch = None;
        let params = Some((info.m as usize, info.n as usize));
        let channel = usize::from(info.channel);
        self.session
            .retune(channel, info.epoch, params, info.commitment_root);
        self.baseline_tuned_channel();
    }

    /// Raises a resync's gap baseline to the newest slot heard, while
    /// untuned, on the channel the session has just tuned to: none of
    /// those slots was lost.  Without a resync baseline the next frame
    /// heard sets it, because a decode failure while untuned has already
    /// booked its erasure.
    fn baseline_tuned_channel(&mut self) {
        let heard = std::mem::take(&mut self.untuned_heard);
        let newest = self
            .session
            .channel()
            .and_then(|channel| heard.get(&(channel as u16)));
        if let (Some(baseline), Some(&newest)) = (self.last_slot.as_mut(), newest) {
            *baseline = (*baseline).max(newest);
        }
    }

    fn note_erasures(&mut self, count: usize) {
        self.session.ingest(Observation::Erasure { count });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{datagrams, encode};
    use bytes::Bytes;
    use ida::{BlockHeader, DispersedBlock};

    fn frame(slot: u64, channel: u16, file: u32, index: u32, payload: &[u8]) -> Frame {
        Frame::Slot(SlotFrame {
            epoch: 1,
            channel,
            slot,
            block: DispersedBlock::new(
                BlockHeader {
                    file: FileId(file),
                    index,
                    m: 2,
                    n: 4,
                    original_len: 8,
                },
                Bytes::from(payload.to_vec()),
            ),
        })
    }

    #[test]
    fn learns_params_and_completes_from_slot_frames_alone() {
        let mut state = ClientState::new(FileId(1));
        assert!(!state.feed_datagram(&encode(&frame(0, 0, 1, 0, b"aaaa"))));
        assert_eq!(state.params(), Some((2, 4)));
        assert_eq!(state.channel(), Some(0));
        assert!(state.feed_datagram(&encode(&frame(1, 0, 1, 1, b"bbbb"))));
        assert!(state.is_complete());
    }

    #[test]
    fn corrupt_datagrams_become_erasures() {
        let mut state = ClientState::new(FileId(1));
        let mut corrupt = encode(&frame(0, 0, 1, 0, b"aaaa"));
        corrupt[10] ^= 0xFF;
        state.feed_datagram(&corrupt);
        state.feed_datagram(b"no");
        assert_eq!(state.stats().decode_errors, 2);
        assert_eq!(state.stats().erasures, 2);
        // They reached the session before (m, n) was known.
        state.feed_datagram(&encode(&frame(1, 0, 1, 0, b"aaaa")));
        state.feed_datagram(&encode(&frame(2, 0, 1, 1, b"bbbb")));
        let outcome = state.finish().unwrap();
        assert_eq!(outcome.errors_observed, 2);
    }

    #[test]
    fn a_corrupt_datagram_after_the_baseline_costs_only_the_slot_it_leaves() {
        let mut state = ClientState::new(FileId(1));
        state.feed_datagram(&encode(&frame(0, 0, 1, 0, b"aaaa")));
        // Another channel's datagram, corrupted: no slot of ours is lost.
        let mut foreign = encode(&frame(1, 3, 2, 0, b"xxxx"));
        foreign[10] ^= 0xFF;
        state.feed_datagram(&foreign);
        let stats = state.stats();
        assert_eq!((stats.decode_errors, stats.erasures), (1, 0));
        // Our slot 1, corrupted: the gap it leaves books it, once.
        let mut own = encode(&frame(1, 0, 1, 1, b"bbbb"));
        own[10] ^= 0xFF;
        state.feed_datagram(&own);
        assert!(state.feed_datagram(&encode(&frame(2, 0, 1, 1, b"bbbb"))));
        let stats = state.stats();
        assert_eq!(
            (stats.decode_errors, stats.gap_erasures, stats.erasures),
            (2, 1, 1)
        );
        assert_eq!(state.finish().unwrap().errors_observed, 1);
    }

    #[test]
    fn slot_gaps_on_the_clients_channel_become_erasures() {
        let mut state = ClientState::new(FileId(1));
        state.feed_datagram(&encode(&frame(0, 0, 1, 0, b"aaaa")));
        // Slots 1..4 never arrive.
        state.feed_datagram(&encode(&frame(4, 0, 1, 1, b"bbbb")));
        assert_eq!(state.stats().gap_erasures, 3);
        assert_eq!(state.finish().unwrap().errors_observed, 3);
    }

    #[test]
    fn gaps_on_other_channels_are_ignored() {
        let mut state = ClientState::new(FileId(1));
        state.feed_datagram(&encode(&frame(0, 0, 1, 0, b"aaaa")));
        // A foreign channel with wild slot numbering.
        state.feed_datagram(&encode(&frame(90, 3, 2, 0, b"xxxx")));
        state.feed_datagram(&encode(&frame(1, 0, 1, 1, b"bbbb")));
        assert_eq!(state.stats().gap_erasures, 0);
    }

    #[test]
    fn resync_baselines_the_gap_detector() {
        let mut state = ClientState::new(FileId(1));
        state.feed_frame(Frame::Control(ControlFrame::Resync {
            epoch: 0,
            next_slot: 100,
        }));
        state.feed_datagram(&encode(&frame(100, 0, 1, 0, b"aaaa")));
        assert_eq!(state.stats().gap_erasures, 0);
        state.feed_datagram(&encode(&frame(102, 0, 1, 1, b"bbbb")));
        assert_eq!(state.stats().gap_erasures, 1);
    }

    #[test]
    fn frames_heard_before_the_first_own_block_are_not_gaps() {
        // A join ack's resync, then other files' frames on the channel the
        // first own block later names: nothing was lost.
        let mut state = ClientState::new(FileId(1));
        state.feed_frame(Frame::Control(ControlFrame::Resync {
            epoch: 0,
            next_slot: 10,
        }));
        for slot in 10..15 {
            state.feed_datagram(&encode(&frame(slot, 0, 2, 0, b"xxxx")));
        }
        state.feed_datagram(&encode(&frame(15, 0, 1, 0, b"aaaa")));
        let stats = state.stats();
        assert_eq!(state.channel(), Some(0));
        assert_eq!((stats.gap_erasures, stats.erasures), (0, 0));
        // The baseline now follows the channel: a real gap still books.
        state.feed_datagram(&encode(&frame(17, 0, 1, 1, b"bbbb")));
        assert_eq!(state.stats().gap_erasures, 1);
    }

    #[test]
    fn subscribe_ack_supplies_params_before_any_block() {
        let mut state = ClientState::new(FileId(1));
        state.feed_frame(Frame::Control(ControlFrame::SubscribeAck {
            file: FileId(1),
            info: SubscriptionInfo::new(2, 0, 2, 4),
        }));
        assert_eq!(state.params(), Some((2, 4)));
        assert_eq!(state.channel(), Some(2));
    }

    #[test]
    fn fragmented_frames_feed_through() {
        let big = frame(0, 0, 1, 0, &vec![7u8; 5000]);
        let mut state = ClientState::new(FileId(1));
        for d in datagrams(&big, 1200, 9) {
            state.feed_datagram(&d);
        }
        assert_eq!(state.blocks_received(), 1);
        assert_eq!(state.stats().slot_frames, 1);
    }

    #[test]
    fn client_stats_export_as_registry_gauges() {
        let mut state = ClientState::new(FileId(1));
        state.feed_datagram(&encode(&frame(0, 0, 1, 0, b"aaaa")));
        state.feed_datagram(b"junk");
        let registry = bobs::Registry::new();
        state.stats().export_into(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["bnet_client_datagrams"], 2);
        assert_eq!(snap.gauges["bnet_client_decode_errors"], 1);
        // Re-export overwrites: it is a point-in-time view.
        state.feed_datagram(&encode(&frame(1, 0, 1, 1, b"bbbb")));
        state.stats().export_into(&registry);
        assert_eq!(registry.snapshot().gauges["bnet_client_datagrams"], 3);
    }

    fn epoch_frame(slot: u64, epoch: u64, file: u32, index: u32, payload: &[u8]) -> Frame {
        let Frame::Slot(mut sf) = frame(slot, 0, file, index, payload) else {
            unreachable!()
        };
        sf.epoch = epoch;
        Frame::Slot(sf)
    }

    #[test]
    fn a_newer_epoch_on_the_wire_flags_the_session_stale() {
        let mut state = ClientState::new(FileId(1));
        state.feed_frame(epoch_frame(0, 3, 1, 0, b"aaaa"));
        assert_eq!(state.epoch(), Some(3));
        assert_eq!(state.stale_epoch(), None);
        state.feed_frame(epoch_frame(1, 4, 1, 1, b"bbbb"));
        assert_eq!(state.stale_epoch(), Some(4));
    }

    #[test]
    fn resubscribe_rebaselines_the_gap_detector_and_clears_staleness() {
        let mut state = ClientState::new(FileId(1));
        state.feed_frame(epoch_frame(10, 1, 1, 0, b"aaaa"));
        // A foreign file's frame on the same channel carries the new epoch.
        state.feed_frame(epoch_frame(50, 2, 9, 0, b"zzzz"));
        assert_eq!(state.stale_epoch(), Some(2));
        let gaps_before = state.stats().gap_erasures;
        // Recovery round: the gap detector jumps to the station's counter,
        // staleness clears, the session tunes to the answer.
        state.resubscribe(SubscriptionInfo::new(3, 2, 2, 4), 100);
        assert_eq!(state.stale_epoch(), None);
        assert_eq!((state.channel(), state.epoch()), (Some(3), Some(2)));
        assert_eq!(state.stats().resyncs, 1);
        let Frame::Slot(mut sf) = epoch_frame(100, 2, 1, 1, b"bbbb") else {
            unreachable!()
        };
        sf.channel = 3;
        state.feed_frame(Frame::Slot(sf));
        assert_eq!(state.stats().gap_erasures, gaps_before);
    }

    #[test]
    fn a_redispersed_block_never_makes_the_session_complete() {
        // A swap re-dispersed the file from (2, 4) to (3, 6): one block of
        // each is two distinct indices, but not a reconstructible pair.
        let mut state = ClientState::new(FileId(1));
        state.feed_datagram(&encode(&frame(0, 0, 1, 0, b"aaaa")));
        assert_eq!(state.params(), Some((2, 4)));
        let redispersed = Frame::Slot(SlotFrame {
            epoch: 1,
            channel: 0,
            slot: 1,
            block: DispersedBlock::new(
                BlockHeader {
                    file: FileId(1),
                    index: 1,
                    m: 3,
                    n: 6,
                    original_len: 9,
                },
                Bytes::from(vec![1u8; 3]),
            ),
        });
        assert!(!state.feed_datagram(&encode(&redispersed)));
        assert!(!state.is_complete(), "complete must imply reconstructible");
        assert_eq!(state.blocks_received(), 1);
        assert_eq!(
            state.stats().erasures,
            0,
            "a misfit is not a lost reception"
        );
        assert!(state.feed_datagram(&encode(&frame(2, 0, 1, 1, b"bbbb"))));
        assert!(state.finish().is_ok());
    }

    #[test]
    fn recovery_counters_ride_the_stats_and_the_registry_export() {
        let mut state = ClientState::new(FileId(1));
        state.note_rejoin();
        state.note_rejoin();
        state.note_partition_suspect();
        state.resubscribe(SubscriptionInfo::new(0, 1, 2, 4), 0);
        let stats = state.stats();
        assert_eq!(
            (stats.rejoins, stats.resyncs, stats.partition_suspects),
            (2, 1, 1)
        );
        let registry = bobs::Registry::new();
        stats.export_into(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges["bnet_client_rejoins"], 2);
        assert_eq!(snap.gauges["bnet_client_resyncs"], 1);
        assert_eq!(snap.gauges["bnet_client_partition_suspects"], 1);
    }

    #[test]
    fn armed_clients_verify_blocks_on_receive() {
        let d = ida::Dispersal::authenticated(2, 4).unwrap();
        let data: Vec<u8> = (0..64u32).map(|i| i as u8).collect();
        let df = d.disperse(FileId(1), &data).unwrap();
        let root = df.commitment_root().unwrap();

        let mut state = ClientState::new(FileId(1));
        state.feed_frame(Frame::Control(ControlFrame::SubscribeAck {
            file: FileId(1),
            info: SubscriptionInfo::new(0, 1, 2, 4).with_root(root),
        }));
        assert_eq!(state.commitment_root(), Some(root));

        let slot = |slot: u64, block: DispersedBlock| {
            Frame::Slot(SlotFrame {
                epoch: 1,
                channel: 0,
                slot,
                block,
            })
        };
        // A tampered payload under the real proof: rejected and counted,
        // round-tripped through the v2 encoding like a real datagram.
        let good = &df.blocks()[0];
        let mut tampered = good.payload().to_vec();
        tampered[0] ^= 0xFF;
        let bad = DispersedBlock::new(*good.header(), Bytes::from(tampered))
            .with_proof(good.proof().unwrap().clone());
        assert!(!state.feed_datagram(&encode(&slot(0, bad))));
        assert_eq!(state.stats().verify_failures, 1);
        assert_eq!(state.blocks_received(), 0);

        // The authentic blocks complete the retrieval byte-identically.
        assert!(!state.feed_datagram(&encode(&slot(1, df.blocks()[1].clone()))));
        assert!(state.feed_datagram(&encode(&slot(2, df.blocks()[2].clone()))));
        let outcome = state.finish().unwrap();
        assert_eq!(outcome.data, data);
        assert_eq!(outcome.errors_observed, 1);
        assert_eq!(state.stats().erasures, 1);
    }

    #[test]
    fn unarmed_clients_accept_proofless_blocks_from_v2_stations() {
        // A client that never learned the root (pure-UDP, no control
        // plane) still completes: verification is opt-in by knowledge.
        let d = ida::Dispersal::authenticated(2, 4).unwrap();
        let data: Vec<u8> = (0..64u32).map(|i| i as u8).collect();
        let df = d.disperse(FileId(1), &data).unwrap();
        let mut state = ClientState::new(FileId(1));
        for (i, b) in df.blocks().iter().take(2).enumerate() {
            state.feed_datagram(&encode(&Frame::Slot(SlotFrame {
                epoch: 1,
                channel: 0,
                slot: i as u64,
                block: b.clone(),
            })));
        }
        assert_eq!(state.finish().unwrap().data, data);
    }

    #[test]
    fn finishing_without_signal_or_blocks_fails_cleanly() {
        let state = ClientState::new(FileId(1));
        assert!(matches!(state.finish(), Err(NetError::NoSignal { .. })));
        let mut state = ClientState::new(FileId(1));
        state.feed_datagram(&encode(&frame(0, 0, 1, 0, b"aaaa")));
        assert!(matches!(
            state.finish(),
            Err(NetError::Incomplete {
                received: 1,
                required: 2,
                ..
            })
        ));
    }
}
