//! Property tests for online mode transitions (the `bmode` subsystem plus
//! the facade's `prepare_mode`/`swap` surface).
//!
//! Seeded-RNG properties locking in the hot-swap guarantees:
//!
//! * **atomicity** — every transmitted slot decodes under exactly one
//!   epoch's program: slots before the flip replay the old program, slots
//!   at/after it the new one, never a blend;
//! * **byte identity** — channels the transition does not touch transmit
//!   byte-identical payloads across the swap;
//! * **drain** — under [`SwapPolicy::Drain`], no retrieval of a file whose
//!   channel is untouched ever resolves to `ModeChanged` (and with a
//!   fault-free channel, nothing does: everything in flight drains);
//! * **post-swap Lemma 3** — retrievals subscribed after the flip meet the
//!   *new* mode's declared latency `d⁽ʲ⁾` under `j ≤ r` reception faults;
//! * **one loader** — a mode reached by `prepare` + `swap` is, on the air
//!   and on the control plane, the mode a fresh build of the same
//!   specifications and contents produces, and so is a content refresh;
//! * **design reuse** — a target with the specifications on the air (a
//!   content refresh) keeps the design on the air, which is what the
//!   station's own planner would produce again; any other target goes
//!   through the designer and gets the transition a fresh design gives;
//! * **sharing** — a content refresh copies nothing it keeps: every other
//!   file is served by the very blocks, proofs, payloads and dispersal
//!   configuration it was served by before.
//!
//! Case counts are tunable without code edits via the `RTBDISK_PROP_CASES`
//! environment variable (default 64; CI runs 256).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtbdisk::bmode::{ChannelView, CurrentMode};
use rtbdisk::{
    Broadcast, BroadcastBuilder, ErrorModel, FileId, GeneralizedFileSpec, ModePlanner, ModeProfile,
    ModeSpec, NoErrors, RedundancyPolicy, Retrieval, RetrievalResolution, Station, SwapPolicy,
    TransmissionRef,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Property-test depth: `RTBDISK_PROP_CASES` (default 64).
fn prop_cases() -> usize {
    std::env::var("RTBDISK_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
        .max(1)
}

/// A random specification set of `n_files` files whose *total* density stays
/// below `density_cap` (mirrors the sharding suite's generator).
fn random_specs(rng: &mut StdRng, n_files: usize, density_cap: f64) -> Vec<GeneralizedFileSpec> {
    loop {
        let mut density = 0.0f64;
        let mut specs = Vec::new();
        for i in 0..n_files {
            let m = rng.gen_range(1u32..=3);
            let r = rng.gen_range(0usize..=2);
            let d0 = (m + r as u32) * rng.gen_range(3u32..=6) + rng.gen_range(0u32..=4);
            let mut latencies = vec![d0];
            for _ in 0..r {
                let prev = *latencies.last().unwrap();
                latencies.push(prev + rng.gen_range(1u32..=4));
            }
            density += f64::from(m) / f64::from(d0);
            specs.push(GeneralizedFileSpec::new(FileId(i as u32 + 1), m, latencies).unwrap());
        }
        if density <= density_cap {
            return specs;
        }
    }
}

/// A random mutation of `specs` into a target mode: drop a file, relax a
/// latency vector, and/or demand extra redundancy for one file.
fn random_target_mode(rng: &mut StdRng, specs: &[GeneralizedFileSpec]) -> ModeSpec {
    let mut target: Vec<GeneralizedFileSpec> = specs.to_vec();
    // Maybe drop one file (keep at least one).
    if target.len() > 1 && rng.gen_bool(0.4) {
        let victim = rng.gen_range(0..target.len());
        target.remove(victim);
    }
    // Maybe relax one file's latencies (relaxing keeps the design feasible).
    if rng.gen_bool(0.5) {
        let i = rng.gen_range(0..target.len());
        let s = &target[i];
        let latencies: Vec<u32> = s.latencies.iter().map(|&d| d * 2).collect();
        target[i] = GeneralizedFileSpec::new(s.id, s.size_blocks, latencies).unwrap();
    }
    let mut mode = ModeSpec::new(format!("target-{}", rng.gen_range(0u32..1000)));
    // Maybe demand extra redundancy for one file via the profile.
    if rng.gen_bool(0.5) {
        let boosted = target[rng.gen_range(0..target.len())].id;
        mode = mode.with_profile(
            ModeProfile::new("boost", RedundancyPolicy::None).with_override(
                boosted,
                RedundancyPolicy::TolerateFaults {
                    faults: rng.gen_range(1usize..=3),
                },
            ),
        );
    }
    mode.files(target)
}

/// Builds a `k`-channel station plus a prepared random target mode,
/// re-drawing instances the scheduler cascade declines.
fn random_transition(rng: &mut StdRng, k: usize) -> (Station, rtbdisk::PreparedMode, ModeSpec) {
    loop {
        let n_files = rng.gen_range(k.max(2)..=k.max(2) + 3);
        let specs = random_specs(rng, n_files, 0.6);
        let Ok(station) = Broadcast::builder()
            .files(specs.clone())
            .channels(k)
            .build()
        else {
            continue;
        };
        let mode = random_target_mode(rng, &specs);
        match station.prepare_mode(&mode) {
            Ok(prepared) => return (station, prepared, mode),
            Err(_) => continue,
        }
    }
}

fn same_payload(a: Option<TransmissionRef<'_>>, b: Option<TransmissionRef<'_>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.block.file() == y.block.file()
                && x.block.index() == y.block.index()
                && x.block.payload().as_slice() == y.block.payload().as_slice()
        }
        _ => false,
    }
}

/// Loses the receptions of `file` whose reception index is in `indices`
/// (the Lemma 3 adversary of the sharding suite).
struct LoseReceptions {
    file: FileId,
    indices: BTreeSet<usize>,
    seen: usize,
}

impl ErrorModel for LoseReceptions {
    fn is_lost(&mut self, tx: TransmissionRef<'_>) -> bool {
        if tx.block.file() != self.file {
            return false;
        }
        let lost = self.indices.contains(&self.seen);
        self.seen += 1;
        lost
    }
}

// ---------------------------------------------------------------------------
// (a) atomicity: every slot decodes under exactly one epoch's program.
// ---------------------------------------------------------------------------

#[test]
fn every_slot_decodes_under_exactly_one_epochs_program() {
    let mut rng = StdRng::seed_from_u64(0xB30DE1);
    let cases = prop_cases().div_ceil(4);
    for _case in 0..cases {
        let k = [1usize, 2, 4][rng.gen_range(0usize..3)];
        let (mut station, prepared, _) = random_transition(&mut rng, k);
        let before = station.clone();
        let at_slot = rng.gen_range(0usize..200);
        let policy = if rng.gen_bool(0.5) {
            SwapPolicy::Immediate
        } else {
            SwapPolicy::Drain
        };
        let report = station.swap(prepared, at_slot, policy).unwrap();
        let flip = report.flip_slot;
        // Around the flip, every lane must transmit either exactly what the
        // old mode would (slot < flip) or exactly what the new mode does
        // (slot ≥ flip) — never a mixture within one slot.
        let lanes = station.bank().lane_count();
        for slot in flip.saturating_sub(30)..flip + 30 {
            for lane in 0..lanes {
                let got = station.bank().transmit_ref(lane, slot);
                let expect = if slot < flip {
                    before.bank().transmit_ref(lane, slot)
                } else {
                    station
                        .reports()
                        .get(lane)
                        .map(|r| r.program.entry(slot))
                        .and_then(|entry| match entry {
                            rtbdisk::bdisk::ProgramEntry::Idle => None,
                            rtbdisk::bdisk::ProgramEntry::Block { .. } => {
                                station.bank().current(lane)?.transmit_ref(slot)
                            }
                        })
                };
                assert!(
                    same_payload(got, expect),
                    "lane {lane} slot {slot} (flip {flip}) blends epochs"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (b) unchanged channels are byte-identical across a swap.
// ---------------------------------------------------------------------------

#[test]
fn unchanged_channels_transmit_byte_identically_across_a_swap() {
    let mut rng = StdRng::seed_from_u64(0xB30DE2);
    let cases = prop_cases().div_ceil(4);
    for _case in 0..cases {
        let k = [2usize, 4][rng.gen_range(0usize..2)];
        let (mut station, prepared, _) = random_transition(&mut rng, k);
        let unchanged = prepared.transition().unchanged_channels();
        let before = station.clone();
        let at_slot = rng.gen_range(0usize..100);
        let report = station
            .swap(prepared, at_slot, SwapPolicy::Immediate)
            .unwrap();
        for &c in &unchanged {
            assert!(
                !report.flipped_channels.contains(&c),
                "planned-unchanged channel {c} flipped"
            );
            // Same bytes on the wire, before and long after the flip.
            for slot in 0..report.flip_slot + 60 {
                let got = station.bank().transmit_ref(c, slot);
                let expect = before.bank().transmit_ref(c, slot);
                assert!(
                    same_payload(got, expect),
                    "unchanged channel {c} differs at slot {slot}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (c) drain: untouched channels never see ModeChanged.
// ---------------------------------------------------------------------------

#[test]
fn drain_never_cancels_files_on_untouched_channels() {
    let mut rng = StdRng::seed_from_u64(0xB30DE3);
    let cases = prop_cases().div_ceil(4);
    for _case in 0..cases {
        let k = [1usize, 2, 4][rng.gen_range(0usize..3)];
        let (mut station, prepared, _) = random_transition(&mut rng, k);
        let unchanged: BTreeSet<usize> = prepared
            .transition()
            .unchanged_channels()
            .into_iter()
            .collect();
        let at_slot = rng.gen_range(5usize..60);
        // In-flight fleet across every current file, staggered requests.
        let mut fleet: Vec<Retrieval> = Vec::new();
        let mut untouched_files = BTreeSet::new();
        for spec in station.specs().to_vec() {
            let channel = station.channel_of(spec.id).unwrap();
            if unchanged.contains(&channel) {
                untouched_files.insert(spec.id);
            }
            for _ in 0..2 {
                let start = rng.gen_range(0..at_slot);
                fleet.push(station.subscribe(spec.id, start).unwrap());
            }
        }
        station
            .run_until_slot(&mut fleet, &mut NoErrors, at_slot)
            .unwrap();
        station.swap(prepared, at_slot, SwapPolicy::Drain).unwrap();
        let resolutions = station
            .run_until_resolved(&mut fleet, &mut NoErrors)
            .unwrap();
        for (retrieval, resolution) in fleet.iter().zip(&resolutions) {
            if let RetrievalResolution::ModeChanged { file, .. } = resolution {
                assert!(
                    !untouched_files.contains(file),
                    "drain cancelled {file} whose channel was untouched"
                );
            }
            // Fault-free drain: *nothing* in flight is ever cancelled — the
            // horizon covers every declared tolerance.
            assert!(
                !resolution.is_mode_changed(),
                "fault-free drain cancelled {:?}",
                retrieval.file()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// (d) post-swap Lemma 3: the new mode's latency bound holds.
// ---------------------------------------------------------------------------

#[test]
fn post_swap_retrievals_meet_the_new_modes_lemma_3_bound() {
    let mut rng = StdRng::seed_from_u64(0xB30DE4);
    let cases = prop_cases().div_ceil(4);
    for _case in 0..cases {
        let k = [1usize, 2][rng.gen_range(0usize..2)];
        let (mut station, prepared, _) = random_transition(&mut rng, k);
        let at_slot = rng.gen_range(0usize..50);
        let policy = if rng.gen_bool(0.5) {
            SwapPolicy::Immediate
        } else {
            SwapPolicy::Drain
        };
        let report = station.swap(prepared, at_slot, policy).unwrap();
        // One random new-mode file, one random fault level, three starts at
        // or after the flip.
        let files = station.files().files().to_vec();
        let f = &files[rng.gen_range(0..files.len())];
        let m = f.size_blocks as usize;
        let j = rng.gen_range(0..=f.latencies.max_faults());
        let channel = station.channel_of(f.id).unwrap();
        let cycle = station.program_of(channel).unwrap().data_cycle();
        for _ in 0..3 {
            let start = report.flip_slot + rng.gen_range(0..cycle);
            let mut indices = BTreeSet::new();
            while indices.len() < j {
                indices.insert(rng.gen_range(0..m + j));
            }
            let mut errors = LoseReceptions {
                file: f.id,
                indices: indices.clone(),
                seen: 0,
            };
            let mut retrieval = station.subscribe(f.id, start).unwrap();
            let outcomes = station
                .run_until_complete(std::slice::from_mut(&mut retrieval), &mut errors)
                .unwrap();
            let outcome = &outcomes[0];
            assert!(outcome.errors_observed <= j);
            let deadline = retrieval.deadline(j).unwrap();
            assert!(
                outcome.latency() <= deadline as usize,
                "file {} (m={m}) from slot {start} (flip {}) with {j} faults at \
                 {indices:?}: latency {} > d({j}) = {deadline} in mode `{}`",
                f.id,
                report.flip_slot,
                outcome.latency(),
                station.mode()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Immediate-policy dispositions are exactly the planned trichotomy.
// ---------------------------------------------------------------------------

#[test]
fn immediate_swaps_resolve_in_flight_retrievals_per_the_plan() {
    let mut rng = StdRng::seed_from_u64(0xB30DE5);
    let cases = prop_cases().div_ceil(4);
    for _case in 0..cases {
        let k = [1usize, 2][rng.gen_range(0usize..2)];
        let (mut station, prepared, _) = random_transition(&mut rng, k);
        let unchanged: BTreeSet<usize> = prepared
            .transition()
            .unchanged_channels()
            .into_iter()
            .collect();
        let resubscribable: BTreeSet<FileId> = prepared.resubscribable().collect();
        let retained: BTreeSet<FileId> = prepared.transition().retained.iter().copied().collect();
        let at_slot = rng.gen_range(5usize..40);
        let mut fleet: Vec<Retrieval> = station
            .specs()
            .to_vec()
            .iter()
            .map(|s| station.subscribe(s.id, at_slot.saturating_sub(3)).unwrap())
            .collect();
        station
            .swap(prepared, at_slot, SwapPolicy::Immediate)
            .unwrap();
        let resolutions = station
            .run_until_resolved(&mut fleet, &mut NoErrors)
            .unwrap();
        for (retrieval, resolution) in fleet.iter().zip(&resolutions) {
            let file = retrieval.file();
            match resolution {
                RetrievalResolution::Complete(outcome) => {
                    assert_eq!(outcome.file, file);
                    // Completed despite the swap: either its channel never
                    // flipped, it finished before the flip, or it was
                    // carried over by re-subscription.
                    if retrieval.epoch() > 0 {
                        assert!(
                            resubscribable.contains(&file),
                            "{file} re-subscribed but was not planned to"
                        );
                    }
                }
                RetrievalResolution::ModeChanged { file: f, .. } => {
                    assert_eq!(*f, file);
                    // Only files that could not be carried over may cancel:
                    // dropped, or re-dispersed incompatibly — and never on
                    // an untouched channel.
                    assert!(!resubscribable.contains(&file));
                    let was_on_unchanged = station
                        .bank()
                        .channel_of_at(file, 0)
                        .is_some_and(|c| unchanged.contains(&c));
                    assert!(
                        !was_on_unchanged,
                        "{file} cancelled though its channel was untouched"
                    );
                    let _ = &retained;
                }
            }
        }
    }
}

/// The channel layouts the one-loader and design-reuse properties sweep:
/// `Some(k)` shards over exactly `k` channels, `None` over as few as needed.
const LAYOUTS: [Option<usize>; 4] = [Some(1), Some(2), Some(4), None];

/// The `case`-th point of the sweep: every layout, plain and authenticated.
fn sweep(case: usize) -> (Option<usize>, bool) {
    let layout = LAYOUTS[case % LAYOUTS.len()];
    (layout, (case / LAYOUTS.len()).is_multiple_of(2))
}

/// A builder of `specs` on `layout`.
fn builder(
    specs: Vec<GeneralizedFileSpec>,
    layout: Option<usize>,
    authenticated: bool,
) -> BroadcastBuilder {
    let builder = Broadcast::builder()
        .files(specs)
        .authenticated(authenticated);
    match layout {
        Some(k) => builder.channels(k),
        None => builder.auto_channels(),
    }
}

/// Seeded random bytes for every file of `specs` with probability `p`.
fn random_contents(
    rng: &mut StdRng,
    specs: &[GeneralizedFileSpec],
    p: f64,
) -> BTreeMap<FileId, Vec<u8>> {
    let mut contents = BTreeMap::new();
    for s in specs {
        if rng.gen_bool(p) {
            let len = (s.size_blocks * s.block_bytes) as usize;
            contents.insert(s.id, (0..len).map(|_| rng.gen::<u32>() as u8).collect());
        }
    }
    contents
}

/// `a` and `b` put the same thing on the air from slot `from` on: one full
/// data cycle of every channel, every commitment root and, up to the epoch,
/// the control-plane directory.
fn assert_same_air(a: &Station, b: &Station, from: usize, context: &str) {
    assert_eq!(a.channel_count(), b.channel_count(), "{context}");
    for channel in 0..b.channel_count() {
        let cycle = b.program_of(channel).unwrap().data_cycle();
        let ours = a.stream_channel(channel, from).unwrap();
        let theirs = b.stream_channel(channel, from).unwrap();
        for ((slot, x), (_, y)) in ours.zip(theirs).take(cycle) {
            assert!(
                same_payload(x, y),
                "{context}: channel {channel} slot {slot} differs"
            );
        }
    }
    for spec in b.specs() {
        let root = b.commitment_root_of(spec.id);
        assert_eq!(a.commitment_root_of(spec.id), root, "{context}");
    }
    // A swapped-in channel serves under a bumped epoch, a fresh build under
    // epoch 0.
    let timeless = |station: &Station| -> Vec<_> {
        let directory = station.network_directory();
        let entries = directory.into_iter();
        entries
            .map(|(f, i)| (f, i.channel, i.m, i.n, i.commitment_root))
            .collect()
    };
    assert_eq!(timeless(a), timeless(b), "{context}");
}

/// Whether a preparation installs the very design `station` serves (rather
/// than one the designer produced again).
fn reuses_design(station: &Station, prepared: &rtbdisk::PreparedMode) -> bool {
    std::ptr::eq(prepared.reports().as_ptr(), station.reports().as_ptr())
}

#[test]
fn a_swapped_in_mode_is_the_mode_a_fresh_build_produces() {
    let mut rng = StdRng::seed_from_u64(0x10AD);
    for case in 0..prop_cases() {
        let (layout, authenticated) = sweep(case);
        let (specs, mode, mut contents, built, prepared) = loop {
            let n_files = rng.gen_range(2..=5);
            let specs = random_specs(&mut rng, n_files, 0.6);
            let mode = random_target_mode(&mut rng, &specs);
            // Real bytes for most of the target's files, synthetic for the
            // rest: the loader must treat both alike on both paths.
            let contents = random_contents(&mut rng, &mode.resolved_specs(), 0.7);
            let mut fresh = builder(mode.resolved_specs(), layout, authenticated);
            for (file, bytes) in &contents {
                fresh = fresh.content(*file, bytes.clone());
            }
            let Ok(built) = fresh.build() else { continue };
            let Ok(serving) = builder(specs.clone(), layout, authenticated).build() else {
                continue;
            };
            match serving.prepare_mode_with_contents(&mode, contents.clone()) {
                Ok(prepared) => break (specs, mode, contents, built, (serving, prepared)),
                Err(_) => continue,
            }
        };
        let (mut swapped, prepared) = prepared;
        swapped.swap(prepared, 0, SwapPolicy::Immediate).unwrap();
        let context =
            format!("case {case} ({layout:?}, auth {authenticated}): {specs:?} → {mode:?}");
        assert_same_air(&swapped, &built, 0, &context);
        for spec in mode.resolved_specs() {
            let root = built.commitment_root_of(spec.id);
            assert_eq!(root.is_some(), authenticated, "{context}: {}", spec.id);
            let expected = contents.get(&spec.id);
            let served = built.retrieve(spec.id, 0, &mut NoErrors).unwrap().data;
            assert!(expected.is_none_or(|bytes| *bytes == served), "{context}");
        }

        // A content-only refresh of one file keeps the design on the air
        // and reprograms exactly that file's channel ...
        let resolved = mode.resolved_specs();
        let dirty = resolved[rng.gen_range(0..resolved.len())].clone();
        let bytes = random_contents(&mut rng, std::slice::from_ref(&dirty), 1.0);
        let refresh = ModeSpec::new("refresh").files(swapped.specs().to_vec());
        let prepared = swapped
            .prepare_mode_with_contents(&refresh, bytes.clone())
            .unwrap();
        assert!(reuses_design(&swapped, &prepared), "{context}");
        let dirty_channel = swapped.channel_of(dirty.id).unwrap();
        assert_eq!(
            prepared.transition().changed_channels(),
            vec![dirty_channel],
            "{context}"
        );
        for (channel, report) in prepared.reports().iter().enumerate() {
            assert_eq!(
                Some(&report.program),
                swapped.program_of(channel),
                "{context}"
            );
        }
        // ... and then streams what a fresh build with the new bytes does.
        let at_slot = rng.gen_range(0usize..50);
        swapped
            .swap(prepared, at_slot, SwapPolicy::Immediate)
            .unwrap();
        contents.extend(bytes);
        let mut fresh = builder(resolved, layout, authenticated);
        for (file, bytes) in &contents {
            fresh = fresh.content(*file, bytes.clone());
        }
        let rebuilt = fresh.build().unwrap();
        assert_same_air(
            &swapped,
            &rebuilt,
            at_slot,
            &format!("{context}, refreshed {}", dirty.id),
        );
    }
}

#[test]
fn a_content_refresh_copies_nothing_it_keeps() {
    let mut rng = StdRng::seed_from_u64(0x5A4E);
    for case in 0..prop_cases().div_ceil(2) {
        let (layout, authenticated) = ([Some(1), Some(2)][case % 2], (case / 2) % 2 == 0);
        let mut station = loop {
            let n_files = rng.gen_range(2..=6);
            let specs = random_specs(&mut rng, n_files, 0.6);
            let mut fresh = builder(specs.clone(), layout, authenticated);
            for (file, bytes) in random_contents(&mut rng, &specs, 0.5) {
                fresh = fresh.content(file, bytes);
            }
            if let Ok(station) = fresh.build() {
                break station;
            }
        };
        let before = station.clone();
        let specs = station.specs().to_vec();
        let dirty = specs[rng.gen_range(0..specs.len())].clone();
        let bytes = random_contents(&mut rng, std::slice::from_ref(&dirty), 1.0);
        let refresh = ModeSpec::new("refresh").files(specs.clone());
        let prepared = station.prepare_mode_with_contents(&refresh, bytes).unwrap();
        station
            .swap(prepared, rng.gen_range(0..50), SwapPolicy::Immediate)
            .unwrap();

        let context = format!(
            "case {case} ({layout:?}, auth {authenticated}), refreshed {}",
            dirty.id
        );
        let served = |station: &Station, file: FileId| {
            let channel = station.channel_of(file).unwrap();
            let server = station.bank().current(channel).unwrap();
            server.dispersed(file).unwrap().clone()
        };
        for spec in &specs {
            let (old, new) = (served(&before, spec.id), served(&station, spec.id));
            if spec.id == dirty.id {
                assert_ne!(old.blocks().as_ptr(), new.blocks().as_ptr(), "{context}");
                continue;
            }
            let context = format!("{context}: file {}", spec.id);
            assert_eq!(old.blocks().as_ptr(), new.blocks().as_ptr(), "{context}");
            for (was, is) in old.blocks().iter().zip(new.blocks()) {
                assert_eq!(was.payload().as_ptr(), is.payload().as_ptr(), "{context}");
                match (was.proof(), is.proof()) {
                    (Some(was), Some(is)) => assert!(Arc::ptr_eq(was, is), "{context}"),
                    (was, is) => {
                        assert!(was.is_none() && is.is_none() && !authenticated, "{context}")
                    }
                }
            }
            let (was, is) = (before.dispersal_of(spec.id), station.dispersal_of(spec.id));
            assert!(Arc::ptr_eq(was.unwrap(), is.unwrap()), "{context}");
        }
    }
}

/// A station over 2 to 3·k seeded specifications on `layout` (k = 3 for
/// auto), re-drawing sets the scheduler cascade declines.
fn random_station(rng: &mut StdRng, layout: Option<usize>, authenticated: bool) -> Station {
    let k = layout.unwrap_or(3);
    loop {
        let n_files = rng.gen_range(2..=3 * k);
        let specs = random_specs(rng, n_files, 0.6 * k as f64);
        if let Ok(station) = builder(specs, layout, authenticated).build() {
            return station;
        }
    }
}

#[test]
fn preparing_the_specs_on_the_air_changes_nothing_with_or_without_the_designer() {
    let mut rng = StdRng::seed_from_u64(0xDE5165);
    for case in 0..prop_cases().div_ceil(2) {
        let (layout, authenticated) = sweep(case);
        let station = random_station(&mut rng, layout, authenticated);
        let context = format!("case {case} ({layout:?}): {:?}", station.specs());
        let same = ModeSpec::new("same").files(station.specs().to_vec());
        let reused = station.prepare_mode(&same).unwrap();
        assert!(reused.is_noop(), "{context}");
        assert!(reuses_design(&station, &reused), "{context}");
        // The station's own planner, run by hand on the same
        // specifications, reproduces the design on the air: the fact the
        // reuse above rests on.
        let redesigned = planner_for(layout)
            .plan(&current_of(&station), &same)
            .unwrap();
        assert!(redesigned.transition.is_noop(), "{context}");
        assert_eq!(
            programs(&redesigned.design.reports),
            programs(station.reports()),
            "{context}"
        );
    }
}

/// The mode `station` has on the air, as a planner diffs against it.
fn current_of(station: &Station) -> CurrentMode<'_> {
    CurrentMode {
        specs: station.specs(),
        channels: station
            .reports()
            .iter()
            .map(|r| ChannelView {
                program: &r.program,
                files: &r.files,
            })
            .collect(),
        dirty: BTreeSet::new(),
    }
}

/// The planner a station built on `layout` re-plans with.
fn planner_for(layout: Option<usize>) -> ModePlanner {
    match layout {
        Some(k) => ModePlanner::fixed(k),
        None => ModePlanner::auto(),
    }
}

/// Each channel's broadcast program.
fn programs(reports: &[rtbdisk::bcore::DesignReport]) -> Vec<rtbdisk::bdisk::BroadcastProgram> {
    reports.iter().map(|r| r.program.clone()).collect()
}

/// Prepares `target` on `station` and checks it went through the designer:
/// a new design, with the programs and transition `planner` — the
/// station's own shard planner, run by hand — derives against the air.
fn assert_designed(station: &Station, planner: &ModePlanner, target: &ModeSpec, context: &str) {
    let current = current_of(station);
    let (fresh, prepared) = match (planner.plan(&current, target), station.prepare_mode(target)) {
        (Ok(fresh), Ok(prepared)) => (fresh, prepared),
        (Err(_), Err(_)) => return,
        (fresh, prepared) => panic!("{context}: {:?} vs {:?}", fresh.err(), prepared.err()),
    };
    assert!(!reuses_design(station, &prepared), "{context}");
    assert_eq!(
        format!("{:?}", prepared.transition()),
        format!("{:?}", fresh.transition),
        "{context}"
    );
    assert_eq!(
        programs(prepared.reports()),
        programs(&fresh.design.reports),
        "{context}"
    );
}

#[test]
fn targets_that_change_the_design_inputs_go_through_the_designer() {
    let mut rng = StdRng::seed_from_u64(0xDE5166);
    for case in 0..prop_cases().div_ceil(2) {
        let (layout, authenticated) = sweep(case);
        let station = random_station(&mut rng, layout, authenticated);
        let specs = station.specs().to_vec();
        let pick = specs[rng.gen_range(0..specs.len())].id;
        let relaxed = specs.iter().map(|s| {
            if s.id != pick {
                return s.clone();
            }
            let latencies = s.latencies.iter().map(|&d| d * 2).collect();
            GeneralizedFileSpec::new(s.id, s.size_blocks, latencies).unwrap()
        });
        let boost = ModeProfile::new("boost", RedundancyPolicy::None).with_override(
            pick,
            RedundancyPolicy::TolerateFaults {
                faults: rng.gen_range(1usize..=2),
            },
        );
        let same = ModeSpec::new("same").files(specs.clone());
        let planner = planner_for(layout);
        let context = format!("case {case} ({layout:?}): {specs:?}");
        for target in [
            ModeSpec::new("relaxed").files(relaxed),
            same.with_profile(boost),
        ] {
            assert_designed(
                &station,
                &planner,
                &target,
                &format!("{context} → {target:?}"),
            );
        }
    }
}
