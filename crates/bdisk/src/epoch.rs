//! The epoch/swap primitive: a bank of broadcast channels whose programs can
//! be hot-swapped at a slot boundary.
//!
//! The paper's operating modes (combat/landing, rush-hour/off-peak) imply the
//! broadcast program *changes* while clients are listening.  An [`EpochBank`]
//! makes that change well-defined: each channel carries a timeline of
//! *segments* — half-open slot ranges `[from_slot, next_from_slot)` each
//! served by one immutable [`BroadcastServer`] under one *epoch* number — so
//! every transmitted slot decodes under exactly one epoch's program, never a
//! blend.  A [`EpochBank::swap`] installs the next mode's servers at a single
//! flip slot:
//!
//! * channels whose server handle is unchanged (same [`Arc`]) keep their
//!   current segment — they broadcast byte-identically across the swap and
//!   their epoch does not bump;
//! * changed channels start a new segment at the flip slot under the bumped
//!   epoch;
//! * channels beyond the new mode's channel count go *dark* (idle slots);
//!   channels beyond the old count light up at the flip slot.
//!
//! The file → channel routing table is versioned the same way, so a
//! subscription can be routed against the mode in force at any slot.
//!
//! History is kept until someone retires it: [`EpochBank::retire_before`]
//! drops the segments and routing versions wholly behind a slot floor, so a
//! bank that is refreshed without end holds only what readers can still
//! ask about.  Reads at or above the floor answer exactly as before; reads
//! below it answer `None`.

use crate::server::{BroadcastServer, ServerError, TransmissionRef};
use ida::FileId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One half-open program segment of a channel's timeline.
#[derive(Debug, Clone)]
struct Segment {
    /// Epoch this segment belongs to (bumped per swap that touches the
    /// channel).
    epoch: u64,
    /// First slot served by this segment.
    from_slot: usize,
    /// The serving program, or `None` while the channel is dark.
    server: Option<Arc<BroadcastServer>>,
}

/// The segment timeline of one channel (ascending `from_slot`).
#[derive(Debug, Clone, Default)]
struct Lane {
    segments: Vec<Segment>,
}

impl Lane {
    /// The segment covering `slot`, if the lane has lit up by then.
    fn at(&self, slot: usize) -> Option<&Segment> {
        self.segments.iter().rev().find(|s| s.from_slot <= slot)
    }

    fn latest(&self) -> Option<&Segment> {
        self.segments.last()
    }
}

/// One versioned routing table: in force from `from_slot` on.  Shared, so
/// cloning a bank copies no table.
#[derive(Debug, Clone)]
struct RoutingEpoch {
    from_slot: usize,
    routing: Arc<BTreeMap<FileId, usize>>,
}

/// What a [`EpochBank::swap`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapApplied {
    /// The epoch number the flipped channels now serve under.
    pub epoch: u64,
    /// The slot at which the flipped channels switch programs.
    pub flip_slot: usize,
    /// Indices of the channels that actually changed (new segment installed);
    /// channels absent from this list broadcast byte-identically across the
    /// swap.
    pub flipped: Vec<usize>,
}

/// A bank of slot-synchronized broadcast channels with atomic per-channel
/// program hot-swap.
///
/// Construction wraps an initial set of per-channel servers (epoch 0); each
/// [`EpochBank::swap`] installs the next program generation at a flip slot.
/// All reads are positional in slot time, so drivers replaying any slot at
/// or above the retention floor ([`EpochBank::retired_before`], 0 until
/// [`EpochBank::retire_before`] raises it) — before or after a flip — see
/// exactly the program that was (or will be) on the air in that slot.
/// Slots below the floor read as `None`.
#[derive(Debug, Clone)]
pub struct EpochBank {
    lanes: Vec<Lane>,
    routings: Vec<RoutingEpoch>,
    epoch: u64,
    /// Channel count of the latest mode (lanes beyond it are dark).
    current_channels: usize,
    /// No swap may flip earlier than this slot (monotonic slot time).
    frontier: usize,
    /// Positional reads of slots below this floor answer `None`: the
    /// history that served them has been retired.
    retired_before: usize,
}

impl EpochBank {
    /// Builds a bank serving `servers` from slot 0 under epoch 0.
    ///
    /// Fails with [`ServerError::NoChannels`] on an empty bank and with
    /// [`ServerError::DuplicateFile`] when two channels carry the same file.
    pub fn new(servers: Vec<Arc<BroadcastServer>>) -> Result<Self, ServerError> {
        if servers.is_empty() {
            return Err(ServerError::NoChannels);
        }
        let routing = routing_of(&servers)?;
        let current_channels = servers.len();
        let lanes = servers
            .into_iter()
            .map(|server| Lane {
                segments: vec![Segment {
                    epoch: 0,
                    from_slot: 0,
                    server: Some(server),
                }],
            })
            .collect();
        Ok(EpochBank {
            lanes,
            routings: vec![RoutingEpoch {
                from_slot: 0,
                routing: Arc::new(routing),
            }],
            epoch: 0,
            current_channels,
            frontier: 0,
            retired_before: 0,
        })
    }

    /// The latest epoch number (0 until the first swap).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The earliest slot a future swap may flip at (the latest flip so far).
    pub fn frontier(&self) -> usize {
        self.frontier
    }

    /// Number of channels in the latest mode.
    pub fn channel_count(&self) -> usize {
        self.current_channels
    }

    /// Number of lanes ever used (the widest mode so far); lanes beyond
    /// [`EpochBank::channel_count`] are dark in the latest mode.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// The slot floor below which history has been retired (0 until
    /// [`EpochBank::retire_before`] raises it): positional reads of earlier
    /// slots answer `None`.
    pub fn retired_before(&self) -> usize {
        self.retired_before
    }

    /// The segment `channel` serves `slot` from, unless `slot` is retired.
    fn segment_at(&self, channel: usize, slot: usize) -> Option<&Segment> {
        if slot < self.retired_before {
            return None;
        }
        self.lanes.get(channel)?.at(slot)
    }

    /// The epoch under which `channel` serves `slot` (`None` when the
    /// channel index was never used, the lane has not lit up by `slot`, or
    /// `slot` is below the retention floor).
    pub fn epoch_at(&self, channel: usize, slot: usize) -> Option<u64> {
        Some(self.segment_at(channel, slot)?.epoch)
    }

    /// The epoch `channel` serves under in the latest mode (`None` for
    /// never-used channel indices).
    pub fn current_epoch_of(&self, channel: usize) -> Option<u64> {
        Some(self.lanes.get(channel)?.latest()?.epoch)
    }

    /// The server on the air on `channel` in `slot` (`None` for dark or
    /// unknown channels, and for slots below the retention floor).
    pub(crate) fn server_at(&self, channel: usize, slot: usize) -> Option<&BroadcastServer> {
        self.segment_at(channel, slot)?.server.as_deref()
    }

    /// The latest mode's server of `channel`.
    pub fn current(&self, channel: usize) -> Option<&BroadcastServer> {
        self.lanes.get(channel)?.latest()?.server.as_deref()
    }

    /// A shared handle to the latest mode's server of `channel` (what a swap
    /// passes back in to keep a channel byte-identical).
    pub fn current_arc(&self, channel: usize) -> Option<Arc<BroadcastServer>> {
        self.on_air(channel).cloned()
    }

    fn on_air(&self, channel: usize) -> Option<&Arc<BroadcastServer>> {
        self.lanes.get(channel)?.latest()?.server.as_ref()
    }

    /// What `channel` transmits in `slot` (borrowed; dark and idle slots are
    /// both `None`, and so are slots below the retention floor).
    pub fn transmit_ref(&self, channel: usize, slot: usize) -> Option<TransmissionRef<'_>> {
        self.server_at(channel, slot)?.transmit_ref(slot)
    }

    /// What every lane transmits in `slot`, in channel order, into a
    /// caller-owned buffer — the per-slot serve loop calls this every slot
    /// for every driven retrieval fleet, so reusing one buffer across slots
    /// keeps the loop allocation-free.  Clears `out` and refills it with one
    /// entry per lane.
    pub fn transmit_all_into<'a>(
        &'a self,
        slot: usize,
        out: &mut Vec<Option<TransmissionRef<'a>>>,
    ) {
        out.clear();
        out.extend((0..self.lanes.len()).map(|c| self.transmit_ref(c, slot)));
    }

    /// The channel carrying `file` in the latest mode.
    pub fn channel_of(&self, file: FileId) -> Option<usize> {
        self.routing_now().get(&file).copied()
    }

    /// The channel carrying `file` in the mode in force at `slot` (`None`
    /// below the retention floor).
    pub fn channel_of_at(&self, file: FileId, slot: usize) -> Option<usize> {
        if slot < self.retired_before {
            return None;
        }
        self.routings
            .iter()
            .rev()
            .find(|r| r.from_slot <= slot)?
            .routing
            .get(&file)
            .copied()
    }

    /// The latest mode's file → channel routing table.
    pub fn routing_now(&self) -> &BTreeMap<FileId, usize> {
        &self
            .routings
            .last()
            .expect("a bank always has at least the epoch-0 routing")
            .routing
    }

    /// Atomically installs the next mode's servers, flipping at `flip_slot`.
    ///
    /// Channels whose entry in `servers` is the *same handle* currently on
    /// the air ([`Arc::ptr_eq`]) keep their segment — no epoch bump, no
    /// change on the wire.  Every other channel (including lanes going dark
    /// or lighting up) starts a new segment under the bumped epoch.
    ///
    /// Fails with [`ServerError::SwapInPast`] when `flip_slot` precedes the
    /// previous flip (slot time is monotonic), [`ServerError::NoChannels`]
    /// for an empty next mode and [`ServerError::DuplicateFile`] for an
    /// ambiguous next routing.
    pub fn swap(
        &mut self,
        flip_slot: usize,
        servers: Vec<Arc<BroadcastServer>>,
    ) -> Result<SwapApplied, ServerError> {
        if servers.is_empty() {
            return Err(ServerError::NoChannels);
        }
        if flip_slot < self.frontier {
            return Err(ServerError::SwapInPast {
                flip_slot,
                frontier: self.frontier,
            });
        }
        // Per lane: whether the next mode keeps its server (no flip), and
        // whether it keeps its files.  When every lane keeps its files — a
        // content refresh moves no file — the next mode routes exactly as
        // the latest version does, so no table is rebuilt or versioned.
        let lanes_needed = self.lanes.len().max(servers.len());
        let kept: Vec<(bool, bool)> = (0..lanes_needed)
            .map(
                |channel| match (self.on_air(channel), servers.get(channel)) {
                    (Some(old), Some(new)) if Arc::ptr_eq(old, new) => (true, true),
                    (Some(old), Some(new)) => (false, old.file_ids().eq(new.file_ids())),
                    (None, None) => (true, true),
                    _ => (false, false),
                },
            )
            .collect();
        let routing = match kept.iter().all(|&(_, files)| files) {
            true => None,
            false => Some(routing_of(&servers)?),
        };
        let epoch = self.epoch + 1;
        self.lanes.resize_with(lanes_needed, Lane::default);
        let mut flipped = Vec::new();
        for (channel, &(same_server, _)) in kept.iter().enumerate() {
            if same_server {
                continue;
            }
            self.lanes[channel].segments.push(Segment {
                epoch,
                from_slot: flip_slot,
                server: servers.get(channel).cloned(),
            });
            flipped.push(channel);
        }
        self.epoch = epoch;
        self.frontier = flip_slot;
        self.current_channels = servers.len();
        // A version identical to the latest would answer every
        // `channel_of_at` the same way.
        if let Some(routing) = routing.filter(|r| r != self.routing_now()) {
            self.routings.push(RoutingEpoch {
                from_slot: flip_slot,
                routing: Arc::new(routing),
            });
        }
        Ok(SwapApplied {
            epoch,
            flip_slot,
            flipped,
        })
    }

    /// Retires the history wholly behind `slot`: every segment and routing
    /// version whose successor starts at or before `slot` is dropped — never
    /// the one covering `slot`, never a lane's latest — and `slot` becomes
    /// the retention floor ([`EpochBank::retired_before`]).
    ///
    /// Every positional read at or above the floor answers exactly as
    /// before; reads below it answer `None`.  The latest mode, the epoch,
    /// the frontier and the channel count are untouched, so swaps go on as
    /// before.  The floor only rises: retiring below it retires at it.
    pub fn retire_before(&mut self, slot: usize) {
        let slot = slot.max(self.retired_before);
        for lane in &mut self.lanes {
            let covering = lane.segments.partition_point(|s| s.from_slot <= slot);
            lane.segments.drain(..covering.saturating_sub(1));
        }
        let covering = self.routings.partition_point(|r| r.from_slot <= slot);
        self.routings.drain(..covering.saturating_sub(1));
        self.retired_before = slot;
    }
}

/// The file → channel routing table of a server list; fails on duplicates.
fn routing_of(servers: &[Arc<BroadcastServer>]) -> Result<BTreeMap<FileId, usize>, ServerError> {
    let mut routing = BTreeMap::new();
    for (index, server) in servers.iter().enumerate() {
        for file in server.file_ids() {
            if routing.insert(file, index).is_some() {
                return Err(ServerError::DuplicateFile(file));
            }
        }
    }
    Ok(routing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BroadcastFile, BroadcastProgram, FileSet, FlatOrder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn server_for(ids: &[u32]) -> Arc<BroadcastServer> {
        let files = FileSet::new(
            ids.iter()
                .map(|&i| BroadcastFile::new(FileId(i), format!("F{i}"), 2, 8).with_dispersal(4))
                .collect(),
        )
        .unwrap();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        Arc::new(BroadcastServer::with_synthetic_contents(&files, program).unwrap())
    }

    #[test]
    fn every_slot_decodes_under_exactly_one_epoch() {
        let a = server_for(&[1]);
        let b = server_for(&[2]);
        let mut bank = EpochBank::new(vec![a.clone()]).unwrap();
        let applied = bank.swap(10, vec![b.clone()]).unwrap();
        assert_eq!(applied.epoch, 1);
        assert_eq!(applied.flipped, vec![0]);
        for slot in 0..30 {
            let expected_epoch = if slot < 10 { 0 } else { 1 };
            assert_eq!(bank.epoch_at(0, slot), Some(expected_epoch));
            let expect = if slot < 10 {
                a.transmit_ref(slot)
            } else {
                b.transmit_ref(slot)
            };
            let got = bank.transmit_ref(0, slot);
            assert_eq!(got.is_some(), expect.is_some());
            if let (Some(g), Some(e)) = (got, expect) {
                assert_eq!(g.block.file(), e.block.file());
                assert_eq!(g.block.index(), e.block.index());
            }
        }
    }

    #[test]
    fn unchanged_channels_keep_their_segment_and_epoch() {
        let a = server_for(&[1]);
        let b = server_for(&[2]);
        let b2 = server_for(&[2, 3]);
        let mut bank = EpochBank::new(vec![a.clone(), b]).unwrap();
        // Every file routes to the one channel carrying it.
        assert_eq!(bank.channel_count(), 2);
        assert_eq!(bank.channel_of(FileId(1)), Some(0));
        assert_eq!(bank.channel_of(FileId(2)), Some(1));
        assert_eq!(bank.channel_of(FileId(9)), None);
        let applied = bank.swap(16, vec![a.clone(), b2]).unwrap();
        assert_eq!(applied.flipped, vec![1]);
        // Channel 0 never bumps and stays byte-identical.
        assert_eq!(bank.epoch_at(0, 0), Some(0));
        assert_eq!(bank.epoch_at(0, 100), Some(0));
        assert_eq!(bank.current_epoch_of(0), Some(0));
        // Channel 1 serves epoch 1 from the flip slot.
        assert_eq!(bank.epoch_at(1, 15), Some(0));
        assert_eq!(bank.epoch_at(1, 16), Some(1));
        // Routing is versioned: file 3 exists only from the flip on.
        assert_eq!(bank.channel_of_at(FileId(3), 15), None);
        assert_eq!(bank.channel_of_at(FileId(3), 16), Some(1));
        assert_eq!(bank.channel_of(FileId(3)), Some(1));
    }

    #[test]
    fn lanes_go_dark_and_light_up_across_channel_count_changes() {
        let a = server_for(&[1]);
        let b = server_for(&[2]);
        let c = server_for(&[3]);
        let mut bank = EpochBank::new(vec![a.clone(), b]).unwrap();
        // Narrow to one channel: lane 1 goes dark at 8.
        bank.swap(8, vec![a.clone()]).unwrap();
        assert_eq!(bank.channel_count(), 1);
        assert_eq!(bank.lane_count(), 2);
        assert!(bank.transmit_ref(1, 7).is_some());
        assert!(bank.transmit_ref(1, 8).is_none());
        assert!(bank.server_at(1, 8).is_none());
        // Widen to three: lane 2 lights up at 20 (and transmits nothing
        // before).
        bank.swap(20, vec![a.clone(), c.clone(), server_for(&[4])])
            .unwrap();
        assert_eq!(bank.channel_count(), 3);
        assert_eq!(bank.epoch_at(2, 19), None);
        assert!(bank.transmit_ref(2, 19).is_none());
        assert!(bank.transmit_ref(2, 20).is_some());
    }

    #[test]
    fn transmit_all_into_reuses_the_buffer_across_slots() {
        let a = server_for(&[1]);
        let b = server_for(&[2]);
        let mut bank = EpochBank::new(vec![a, b]).unwrap();
        bank.swap(6, vec![server_for(&[1, 2])]).unwrap();
        let mut buf = Vec::new();
        for slot in 0..12 {
            bank.transmit_all_into(slot, &mut buf);
            assert_eq!(buf.len(), bank.lane_count());
            // Slot-synchronized: entry `c` is what lane `c` transmits now.
            for (channel, x) in buf.iter().enumerate() {
                let y = bank.transmit_ref(channel, slot);
                assert_eq!(x.is_some(), y.is_some(), "slot {slot}");
                if let (Some(x), Some(y)) = (x, y) {
                    assert_eq!(x.slot, slot);
                    assert_eq!(x.block, y.block);
                }
            }
        }
    }

    #[test]
    fn swaps_cannot_flip_before_the_frontier() {
        let a = server_for(&[1]);
        let b = server_for(&[2]);
        let mut bank = EpochBank::new(vec![a.clone()]).unwrap();
        bank.swap(10, vec![b.clone()]).unwrap();
        assert_eq!(
            bank.swap(9, vec![a.clone()]).unwrap_err(),
            ServerError::SwapInPast {
                flip_slot: 9,
                frontier: 10
            }
        );
        // Flipping exactly at the frontier is allowed (the later swap wins).
        assert!(bank.swap(10, vec![a]).is_ok());
    }

    #[test]
    fn empty_and_ambiguous_next_modes_are_rejected() {
        let mut bank = EpochBank::new(vec![server_for(&[1])]).unwrap();
        assert_eq!(bank.swap(5, vec![]).unwrap_err(), ServerError::NoChannels);
        assert_eq!(
            bank.swap(5, vec![server_for(&[2, 3]), server_for(&[3])])
                .unwrap_err(),
            ServerError::DuplicateFile(FileId(3))
        );
        assert_eq!(EpochBank::new(vec![]).unwrap_err(), ServerError::NoChannels);
        assert_eq!(
            EpochBank::new(vec![server_for(&[1, 2]), server_for(&[2])]).unwrap_err(),
            ServerError::DuplicateFile(FileId(2))
        );
    }

    /// File ids a random mode draws from (resharded modes add fillers above
    /// them so no channel is empty).
    const FILES: u32 = 6;

    /// Property-test depth: `RTBDISK_PROP_CASES` (default 64).
    fn prop_cases() -> usize {
        std::env::var("RTBDISK_PROP_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
            .max(1)
    }

    /// The next mode of a random swap sequence: either a refresh (every
    /// channel keeps its files, some get a new server) or a reshard (a
    /// random subset of the files over one to three channels).
    fn next_servers(rng: &mut StdRng, bank: &EpochBank) -> Vec<Arc<BroadcastServer>> {
        if rng.gen_bool(0.5) {
            return (0..bank.channel_count())
                .map(|c| {
                    let server = bank.current_arc(c).unwrap();
                    if rng.gen_bool(0.5) {
                        return server;
                    }
                    let ids: Vec<u32> = server.file_ids().map(|f| f.0).collect();
                    server_for(&ids)
                })
                .collect();
        }
        let k = rng.gen_range(1..=3usize);
        let mut channels = vec![Vec::new(); k];
        for id in 1..=FILES {
            if rng.gen_bool(0.7) {
                channels[rng.gen_range(0..k)].push(id);
            }
        }
        for (c, ids) in channels.iter_mut().enumerate() {
            if ids.is_empty() {
                ids.push(FILES + 1 + c as u32);
            }
        }
        channels.iter().map(|ids| server_for(ids)).collect()
    }

    /// One random swap requested at a slot `now` that moves forward: an
    /// immediate swap flips at the request, a drain swap past a horizon.
    fn random_swap(rng: &mut StdRng, bank: &mut EpochBank, now: &mut usize) {
        *now += rng.gen_range(0..=12usize);
        let at = (*now).max(bank.frontier());
        let flip = if rng.gen_bool(0.5) {
            at
        } else {
            at + rng.gen_range(1..=24usize)
        };
        let servers = next_servers(rng, bank);
        bank.swap(flip, servers).unwrap();
    }

    /// Asserts `retired` answers every positional read of `slots` exactly
    /// as `full` does — one never-used lane and every file id included.
    fn assert_agree(full: &EpochBank, retired: &EpochBank, slots: std::ops::Range<usize>) {
        for slot in slots {
            for c in 0..=full.lane_count() {
                let at = (c, slot);
                assert_eq!(retired.epoch_at(c, slot), full.epoch_at(c, slot), "{at:?}");
                let server = |b: &EpochBank| b.server_at(c, slot).map(|s| s as *const _);
                assert_eq!(server(retired), server(full), "{at:?}");
                let tx = |b: &EpochBank| {
                    let tx = b.transmit_ref(c, slot)?;
                    Some((tx.slot, tx.block as *const _))
                };
                assert_eq!(tx(retired), tx(full), "{at:?}");
            }
            for id in (1..=FILES + 3).map(FileId) {
                let channel = retired.channel_of_at(id, slot);
                assert_eq!(channel, full.channel_of_at(id, slot), "{id} at {slot}");
            }
        }
    }

    /// What a bank holds: per lane `(epoch, from_slot, server)` of every
    /// segment, the routing versions' first slots, and the floor.
    type Held = (
        Vec<Vec<(u64, usize, *const BroadcastServer)>>,
        Vec<usize>,
        usize,
    );

    fn held(bank: &EpochBank) -> Held {
        let lanes = bank.lanes.iter().map(|lane| {
            let segment = |s: &Segment| {
                let server = s
                    .server
                    .as_deref()
                    .map_or(std::ptr::null(), |s| s as *const _);
                (s.epoch, s.from_slot, server)
            };
            lane.segments.iter().map(segment).collect()
        });
        let routings = bank.routings.iter().map(|r| r.from_slot).collect();
        (lanes.collect(), routings, bank.retired_before())
    }

    /// Asserts a retired bank holds nothing wholly behind its floor: no
    /// segment or routing version whose successor starts at or before it.
    fn assert_nothing_behind(bank: &EpochBank) {
        let floor = bank.retired_before();
        for lane in &bank.lanes {
            assert!(lane.segments.windows(2).all(|w| w[1].from_slot > floor));
        }
        assert!(bank.routings.windows(2).all(|w| w[1].from_slot > floor));
    }

    #[test]
    fn retirement_changes_no_answer_at_or_above_the_floor() {
        let mut rng = StdRng::seed_from_u64(0xE9_0C);
        for case in 0..prop_cases() {
            let mut bank = EpochBank::new(vec![server_for(&[1, 2])]).unwrap();
            let mut now = 0;
            for _ in 0..rng.gen_range(1..=8usize) {
                random_swap(&mut rng, &mut bank, &mut now);
            }
            // At least as long as any program here: nine files of four
            // blocks each.
            let cycle = (FILES as usize + 3) * 4;
            let floor = rng.gen_range(0..=bank.frontier() + cycle);
            let mut retired = bank.clone();
            retired.retire_before(floor);
            assert_eq!(retired.retired_before(), floor, "case {case}");
            assert_nothing_behind(&retired);
            assert_agree(&bank, &retired, floor..floor + 3 * cycle);
            for slot in floor.saturating_sub(cycle)..floor {
                for c in 0..=bank.lane_count() {
                    assert_eq!(retired.epoch_at(c, slot), None, "case {case}");
                    assert!(retired.server_at(c, slot).is_none());
                    assert!(retired.transmit_ref(c, slot).is_none());
                }
                assert_eq!(retired.channel_of_at(FileId(1), slot), None);
            }
            // The segment covering the floor stays (the agreement at `floor`
            // shows it), and so does each lane's latest.
            for (full, kept) in bank.lanes.iter().zip(&retired.lanes) {
                let latest = |lane: &Lane| lane.latest().map(|s| (s.epoch, s.from_slot));
                assert_eq!(latest(kept), latest(full), "case {case}");
            }
            assert_eq!(retired.frontier(), bank.frontier());
            assert_eq!(retired.epoch(), bank.epoch());
            assert_eq!(retired.channel_count(), bank.channel_count());
            assert_eq!(retired.lane_count(), bank.lane_count());
            assert_eq!(retired.routing_now(), bank.routing_now());
            // Retiring again, at or below the floor, holds the same history.
            let once = held(&retired);
            retired.retire_before(floor);
            retired.retire_before(floor / 2);
            assert_eq!(held(&retired), once, "case {case}");
            // A later swap lands on both alike — at the floor itself, half
            // the time — and retiring at the same floor drops what it
            // superseded there.
            let servers = next_servers(&mut rng, &bank);
            let lead = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(1..=cycle)
            };
            let flip = bank.frontier().max(floor) + lead;
            let applied = bank.swap(flip, servers.clone()).unwrap();
            assert_eq!(retired.swap(flip, servers).unwrap(), applied);
            assert_agree(&bank, &retired, floor..flip + 3 * cycle);
            retired.retire_before(floor);
            assert_nothing_behind(&retired);
            assert_agree(&bank, &retired, floor..flip + 3 * cycle);
        }
    }

    #[test]
    fn routing_versions_are_pushed_only_when_the_routing_changes() {
        let mut rng = StdRng::seed_from_u64(0x20_07);
        for case in 0..prop_cases() {
            let mut bank = EpochBank::new(vec![server_for(&[1, 2])]).unwrap();
            // The routing of every swap, as if each had pushed its version.
            let mut versions = vec![(0, bank.routing_now().clone())];
            let mut now = 0;
            for _ in 0..rng.gen_range(1..=12usize) {
                random_swap(&mut rng, &mut bank, &mut now);
                versions.push((bank.frontier(), bank.routing_now().clone()));
            }
            let changes = versions.windows(2).filter(|w| w[0].1 != w[1].1).count();
            assert_eq!(bank.routings.len(), 1 + changes, "case {case}");
            for slot in 0..bank.frontier() + 8 {
                let routing = &versions.iter().rev().find(|v| v.0 <= slot).unwrap().1;
                for id in (1..=FILES + 3).map(FileId) {
                    let expect = routing.get(&id).copied();
                    assert_eq!(bank.channel_of_at(id, slot), expect, "case {case}");
                }
            }
        }
    }
}
