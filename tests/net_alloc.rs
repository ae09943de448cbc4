//! What the wire client allocates per datagram, counted by this test
//! binary's own global allocator.
//!
//! A client tuned to one file hears every other file on its channel too.
//! In steady state:
//!
//! * a frame of another file costs no allocation at all — a whole frame is
//!   checked and dropped in its datagram, a fragmented one at fragment 0,
//!   its later fragments skipped;
//! * a kept fragmented block costs [`KEPT_BLOCK_ALLOCATIONS`]: its frame
//!   buffer, the `Bytes` handle that makes the payload a view of it, the
//!   proof path and its `Arc`.  The session's block map adds a node now
//!   and then: [`MAP_SPLIT_ALLOCATIONS`] when it splits.

use rtbdisk::bnet::wire::{datagrams, ControlFrame, Frame, SlotFrame, SubscriptionInfo};
use rtbdisk::bnet::ClientState;
use rtbdisk::ida::{Dispersal, DispersedFile, FileId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations one kept fragmented block makes (see the module doc).
const KEPT_BLOCK_ALLOCATIONS: u64 = 4;

/// Most allocations one insertion into the session's block map (a
/// `BTreeMap`) makes: a new leaf, and a new root when the root splits.
const MAP_SPLIT_ALLOCATIONS: u64 = 2;

/// The system allocator, counting the calls that allocate on the calling
/// thread (tests run on threads of their own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Two files of one dispersal shape, the client's and another.
fn files(dispersal: &Dispersal, len: usize) -> [DispersedFile; 2] {
    [1u32, 2].map(|id| {
        let data: Vec<u8> = (0..len).map(|i| (i * 7 + id as usize) as u8).collect();
        dispersal.disperse(FileId(id), &data).expect("disperses")
    })
}

/// The datagrams of one channel alternating the two files' blocks, one
/// frame per slot, each list one frame.
fn interleaved(files: &[DispersedFile; 2], mtu: usize) -> Vec<(FileId, Vec<Vec<u8>>)> {
    let n = files[0].blocks().len();
    (0..2 * n)
        .map(|slot| {
            let block = files[slot % 2].blocks()[slot / 2].clone();
            let file = block.file();
            let frame = Frame::Slot(SlotFrame {
                epoch: 1,
                channel: 0,
                slot: slot as u64,
                block,
            });
            (file, datagrams(&frame, mtu, slot as u64))
        })
        .collect()
}

fn tuned_client(info: SubscriptionInfo) -> ClientState {
    let mut state = ClientState::new(FileId(1));
    state.feed_frame(Frame::Control(ControlFrame::SubscribeAck {
        file: FileId(1),
        info,
    }));
    state
}

#[test]
fn a_dropped_frame_allocates_nothing_and_a_kept_block_a_few() {
    // 16 KiB authenticated blocks at a 1400-byte MTU: 13 fragments each,
    // like the bulk wire workload.
    let (m, n) = (16u32, 20u32);
    let dispersal = Dispersal::authenticated(m as usize, n as usize).expect("valid (m, n)");
    let files = files(&dispersal, 16 * 16_384);
    let root = files[0].commitment_root().expect("authenticated");
    let stream = interleaved(&files, 1400);
    assert!(stream.iter().all(|(_, frame)| frame.len() == 13));

    let mut state = tuned_client(SubscriptionInfo::new(0, 1, m, n).with_root(root));
    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    for (slot, (file, frame)) in stream.iter().enumerate() {
        // After completion the client's own frames are dropped too.
        let keeps = *file == FileId(1) && !state.is_complete();
        let cost = allocations(|| {
            for datagram in frame {
                state.feed_datagram(datagram);
            }
        });
        // The first two slots warm the reassembler's group list up.
        if slot >= 2 {
            if keeps {
                kept.push(cost);
            } else {
                dropped.push(cost);
            }
        }
    }
    assert!(state.is_complete());
    assert_eq!(state.stats().erasures, 0);
    assert_eq!(
        state.finish().expect("reconstructs").data.len(),
        16 * 16_384
    );
    assert_eq!(kept.len(), m as usize - 1);
    assert!(
        dropped.iter().all(|&cost| cost == 0),
        "allocations per dropped frame: {dropped:?}"
    );
    // Sixteen blocks split the map's first leaf once.
    assert!(
        kept.iter()
            .all(|&cost| cost <= KEPT_BLOCK_ALLOCATIONS + MAP_SPLIT_ALLOCATIONS),
        "allocations per kept block: {kept:?}"
    );
    assert!(
        kept.iter().sum::<u64>()
            <= KEPT_BLOCK_ALLOCATIONS * kept.len() as u64 + MAP_SPLIT_ALLOCATIONS,
        "allocations per kept block: {kept:?}"
    );
}

#[test]
fn a_whole_frame_of_another_file_allocates_nothing() {
    // 512-byte plain blocks, one datagram per slot.
    let dispersal = Dispersal::new(4, 6).expect("valid (m, n)");
    let files = files(&dispersal, 4 * 512);
    let stream = interleaved(&files, 1400);
    assert!(stream.iter().all(|(_, frame)| frame.len() == 1));
    let mut state = tuned_client(SubscriptionInfo::new(0, 1, 4, 6));
    for (slot, (file, frame)) in stream.iter().enumerate() {
        let cost = allocations(|| {
            state.feed_datagram(&frame[0]);
        });
        if *file == FileId(2) && slot >= 2 {
            assert_eq!(cost, 0, "slot {slot}");
        }
    }
    assert!(state.is_complete());
}
