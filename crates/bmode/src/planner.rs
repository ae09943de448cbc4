//! Online re-design and transition planning.
//!
//! A [`ModePlanner`] re-runs the multi-channel design pipeline for a target
//! [`ModeSpec`] and *diffs* the result against the programs currently on the
//! air, producing a [`TransitionPlan`]: the minimal description of what a
//! swap must touch.  Channels whose file set and program are identical are
//! marked [`ChannelTransition::Unchanged`] and can keep broadcasting
//! byte-identically through the swap; everything else is per-channel
//! reprogramming, which is what makes the swap *per-channel atomic* rather
//! than whole-station.

use crate::ModeSpec;
use bcore::{
    BdiskDesigner, DesignError, GeneralizedFileSpec, MultiChannelDesigner, MultiChannelReport,
    ShardPlanner,
};
use bdisk::{BroadcastProgram, FileSet};
use ida::FileId;
use pinwheel::{AutoScheduler, PinwheelScheduler};
use std::collections::BTreeSet;

/// A borrowed view of one channel currently on the air.
#[derive(Debug, Clone, Copy)]
pub struct ChannelView<'a> {
    /// The channel's broadcast program.
    pub program: &'a BroadcastProgram,
    /// The channel's file set (sizes, dispersal widths, latency vectors).
    pub files: &'a FileSet,
}

/// A borrowed view of the mode currently on the air — what the planner diffs
/// the target mode against.
#[derive(Debug, Clone)]
pub struct CurrentMode<'a> {
    /// The specifications of the current mode (for drain-horizon latencies).
    pub specs: &'a [GeneralizedFileSpec],
    /// Per-channel programs and file sets, in channel order.
    pub channels: Vec<ChannelView<'a>>,
    /// Files whose *contents* the transition replaces: their channels must
    /// flip even when the program layout is identical (the bytes on the wire
    /// change).
    pub dirty: BTreeSet<FileId>,
}

/// How one channel (by index) fares across the transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelTransition {
    /// Same file set, same program, same contents: the channel keeps
    /// broadcasting byte-identically and its epoch does not bump.
    Unchanged,
    /// The channel exists in both modes but its program (or a file's
    /// contents) changes at the flip slot.
    Reprogrammed,
    /// The channel exists only in the new mode (lights up at the flip slot).
    Added,
    /// The channel exists only in the old mode (goes dark at the flip slot).
    Dropped,
}

/// The diff between the mode on the air and a designed target mode.
#[derive(Debug, Clone)]
pub struct TransitionPlan {
    /// Target mode name.
    pub mode: String,
    /// Channel count of the old mode.
    pub old_channels: usize,
    /// Channel count of the new mode.
    pub new_channels: usize,
    /// Per-channel disposition, indexed by channel; length is
    /// `max(old_channels, new_channels)`.
    pub channels: Vec<ChannelTransition>,
    /// Files carried by both modes that change channel: `(file, from, to)`.
    pub moved: Vec<(FileId, usize, usize)>,
    /// Files only the new mode carries.
    pub added: Vec<FileId>,
    /// Files only the old mode carries.
    pub dropped: Vec<FileId>,
    /// Files carried by both modes (whatever their channel).
    pub retained: Vec<FileId>,
    /// Files whose *old* channel is reprogrammed or dropped — the ones whose
    /// in-flight retrievals a swap can disturb.
    pub affected: Vec<FileId>,
    /// The Lemma 3 drain horizon in slots: every in-flight retrieval of an
    /// affected file that stays within its declared fault tolerance
    /// completes within this many slots of the swap request (it is the
    /// maximum declared worst-case latency `d⁽ʳ⁾` over the affected files).
    pub drain_horizon: u32,
}

impl TransitionPlan {
    /// Channels that must flip (reprogrammed, added or dropped).
    pub fn changed_channels(&self) -> Vec<usize> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t, ChannelTransition::Unchanged))
            .map(|(c, _)| c)
            .collect()
    }

    /// Channels that keep broadcasting byte-identically.
    pub fn unchanged_channels(&self) -> Vec<usize> {
        self.channels
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t, ChannelTransition::Unchanged))
            .map(|(c, _)| c)
            .collect()
    }

    /// `true` when the transition changes nothing on the air.
    pub fn is_noop(&self) -> bool {
        self.channels
            .iter()
            .all(|t| matches!(t, ChannelTransition::Unchanged))
    }
}

impl core::fmt::Display for TransitionPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "transition to `{}`: {} -> {} channels",
            self.mode, self.old_channels, self.new_channels
        )?;
        for (c, t) in self.channels.iter().enumerate() {
            writeln!(f, "  channel {c}: {t:?}")?;
        }
        writeln!(
            f,
            "  files: {} retained ({} moved), {} added, {} dropped; {} affected",
            self.retained.len(),
            self.moved.len(),
            self.added.len(),
            self.dropped.len(),
            self.affected.len()
        )?;
        write!(f, "  drain horizon: {} slots", self.drain_horizon)
    }
}

/// The result of planning a mode transition: the new per-channel designs and
/// the diff against the current mode.
#[derive(Debug, Clone)]
pub struct ModePlan {
    /// The target mode's verified multi-channel design.
    pub design: MultiChannelReport,
    /// The diff to execute at swap time.
    pub transition: TransitionPlan,
}

/// Plans mode transitions: re-runs the sharded design pipeline for the
/// target mode and diffs it against the current programs.
///
/// The shard planner and the pinwheel scheduler are the same pluggable seams
/// the initial design uses, so a station re-plans with exactly the machinery
/// that built it.
#[derive(Debug, Clone)]
pub struct ModePlanner<S: PinwheelScheduler = AutoScheduler> {
    planner: ShardPlanner,
    designer: BdiskDesigner<S>,
}

impl ModePlanner<AutoScheduler> {
    /// A planner holding the file set to exactly `k` channels, with the
    /// default scheduler cascade.
    pub fn fixed(k: usize) -> Self {
        Self::new(ShardPlanner::fixed(k), BdiskDesigner::default())
    }

    /// A planner using as few channels as needed, with the default scheduler
    /// cascade.
    pub fn auto() -> Self {
        Self::new(ShardPlanner::auto(), BdiskDesigner::default())
    }
}

impl<S: PinwheelScheduler + Clone> ModePlanner<S> {
    /// Combines a shard planner with a per-shard designer.
    pub fn new(planner: ShardPlanner, designer: BdiskDesigner<S>) -> Self {
        ModePlanner { planner, designer }
    }

    /// Designs `target` (profile folded in) and diffs it against `current`.
    pub fn plan(
        &self,
        current: &CurrentMode<'_>,
        target: &ModeSpec,
    ) -> Result<ModePlan, DesignError> {
        let resolved = target.resolved_specs();
        let design =
            MultiChannelDesigner::new(self.planner, self.designer.clone()).design(&resolved)?;
        let transition = diff(current, target.name(), &design);
        Ok(ModePlan { design, transition })
    }
}

/// Computes the [`TransitionPlan`] between the current mode and a designed
/// target.
pub fn diff(
    current: &CurrentMode<'_>,
    mode_name: &str,
    design: &MultiChannelReport,
) -> TransitionPlan {
    let old_k = current.channels.len();
    let new_k = design.reports.len();

    let mut channels = Vec::with_capacity(old_k.max(new_k));
    for c in 0..old_k.max(new_k) {
        let t = if c >= new_k {
            ChannelTransition::Dropped
        } else if c >= old_k {
            ChannelTransition::Added
        } else {
            let old = &current.channels[c];
            let new = &design.reports[c];
            // A mode that reuses the design on the air hands in the very
            // file set and program it serves: identity settles those.
            let same_files = std::ptr::eq(old.files, &new.files) || *old.files == new.files;
            let same_program =
                std::ptr::eq(old.program, &new.program) || *old.program == new.program;
            let content_dirty = current.dirty.iter().any(|&id| old.files.get(id).is_some());
            if !content_dirty && same_files && same_program {
                ChannelTransition::Unchanged
            } else {
                ChannelTransition::Reprogrammed
            }
        };
        channels.push(t);
    }

    // The old routing, rebuilt from the channel views in file order, walked
    // beside the new one (the design's assignment, also in file order).
    let mut old_routing: Vec<(FileId, usize)> = current
        .channels
        .iter()
        .enumerate()
        .flat_map(|(c, view)| view.files.files().iter().map(move |f| (f.id, c)))
        .collect();
    old_routing.sort_unstable();
    old_routing.dedup_by_key(|(file, _)| *file);
    let mut moved = Vec::new();
    let mut added = Vec::new();
    let mut dropped = Vec::new();
    let mut retained = Vec::with_capacity(old_routing.len());
    let mut old = old_routing.iter().copied().peekable();
    for (&file, &new_channel) in design.plan.assignment.iter() {
        while let Some((gone, _)) = old.next_if(|&(id, _)| id < file) {
            dropped.push(gone);
        }
        match old.next_if(|&(id, _)| id == file) {
            Some((_, old_channel)) => {
                retained.push(file);
                if old_channel != new_channel {
                    moved.push((file, old_channel, new_channel));
                }
            }
            None => added.push(file),
        }
    }
    dropped.extend(old.map(|(gone, _)| gone));

    // Affected files: anything whose old channel flips, plus anything
    // dropped; the drain horizon is the worst declared latency among them.
    // The specifications, in file order, are walked beside the routing (the
    // first one of an id is the file's).
    let mut specs: Vec<&GeneralizedFileSpec> = current.specs.iter().collect();
    specs.sort_by_key(|s| s.id);
    let mut specs = specs.into_iter().peekable();
    let mut affected = Vec::new();
    let mut drain_horizon = 0u32;
    for &(file, old_channel) in &old_routing {
        while specs.next_if(|s| s.id < file).is_some() {}
        if matches!(channels[old_channel], ChannelTransition::Unchanged) {
            continue;
        }
        affected.push(file);
        match specs.peek().filter(|s| s.id == file) {
            Some(spec) => {
                if let Some(&worst) = spec.latencies.last() {
                    drain_horizon = drain_horizon.max(worst);
                }
            }
            // Spec missing (shouldn't happen through the facade) — fall back
            // to the served latency vector.
            None => {
                if let Some(f) = current.channels[old_channel].files.get(file) {
                    if let Some(worst) = f.latencies.latency(f.latencies.max_faults()) {
                        drain_horizon = drain_horizon.max(worst);
                    }
                }
            }
        }
    }

    TransitionPlan {
        mode: mode_name.to_string(),
        old_channels: old_k,
        new_channels: new_k,
        channels,
        moved,
        added,
        dropped,
        retained,
        affected,
        drain_horizon,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ida::{ModeProfile, RedundancyPolicy};

    fn spec(id: u32, size: u32, latencies: &[u32]) -> GeneralizedFileSpec {
        GeneralizedFileSpec::new(FileId(id), size, latencies.to_vec()).unwrap()
    }

    /// Designs a mode from scratch (what a station does at build time).
    fn design_of(specs: &[GeneralizedFileSpec], k: usize) -> MultiChannelReport {
        MultiChannelDesigner::fixed(k).design(specs).unwrap()
    }

    fn view(design: &MultiChannelReport) -> Vec<ChannelView<'_>> {
        design
            .reports
            .iter()
            .map(|r| ChannelView {
                program: &r.program,
                files: &r.files,
            })
            .collect()
    }

    #[test]
    fn identical_target_is_a_noop() {
        let specs = vec![spec(1, 2, &[10, 12]), spec(2, 1, &[7])];
        let old = design_of(&specs, 1);
        let current = CurrentMode {
            specs: &specs,
            channels: view(&old),
            dirty: BTreeSet::new(),
        };
        let plan = ModePlanner::fixed(1)
            .plan(&current, &ModeSpec::new("same").files(specs.clone()))
            .unwrap();
        assert!(plan.transition.is_noop());
        assert_eq!(plan.transition.changed_channels(), Vec::<usize>::new());
        assert_eq!(plan.transition.retained.len(), 2);
        assert_eq!(plan.transition.drain_horizon, 0);
    }

    #[test]
    fn content_dirty_files_force_their_channel_to_flip() {
        let specs = vec![spec(1, 2, &[10, 12]), spec(2, 1, &[7])];
        let old = design_of(&specs, 1);
        let current = CurrentMode {
            specs: &specs,
            channels: view(&old),
            dirty: [FileId(2)].into_iter().collect(),
        };
        let plan = ModePlanner::fixed(1)
            .plan(&current, &ModeSpec::new("refresh").files(specs.clone()))
            .unwrap();
        assert!(!plan.transition.is_noop());
        assert_eq!(plan.transition.changed_channels(), vec![0]);
        // Drain horizon covers the worst declared latency among affected
        // files (both files share channel 0 here).
        assert_eq!(plan.transition.drain_horizon, 12);
    }

    #[test]
    fn unchanged_channels_are_detected_per_channel() {
        // Four files on two channels; the new mode only re-specifies the
        // files of one channel, so the other stays untouched.
        let specs: Vec<_> = (1..=4).map(|i| spec(i, 1, &[6 + 2 * i])).collect();
        let old = design_of(&specs, 2);
        // Tighten the latency of one file: only its channel should flip.
        let target_specs: Vec<_> = specs
            .iter()
            .map(|s| {
                if s.id == FileId(1) {
                    spec(1, 1, &[6])
                } else {
                    s.clone()
                }
            })
            .collect();
        let current = CurrentMode {
            specs: &specs,
            channels: view(&old),
            dirty: BTreeSet::new(),
        };
        let plan = ModePlanner::fixed(2)
            .plan(&current, &ModeSpec::new("tighter").files(target_specs))
            .unwrap();
        let changed = plan.transition.changed_channels();
        // The sharding of the new mode may or may not keep the partition;
        // at minimum the plan must be consistent: changed + unchanged covers
        // all channels, and any channel whose program differs is in changed.
        assert_eq!(
            changed.len() + plan.transition.unchanged_channels().len(),
            plan.transition.channels.len()
        );
        assert!(!changed.is_empty());
        for c in plan.transition.unchanged_channels() {
            assert_eq!(old.reports[c].program, plan.design.reports[c].program);
            assert_eq!(old.reports[c].files, plan.design.reports[c].files);
        }
    }

    #[test]
    fn added_dropped_and_moved_files_are_reported() {
        let old_specs = vec![spec(1, 1, &[8]), spec(2, 1, &[10])];
        let old = design_of(&old_specs, 2);
        // New mode drops file 2, adds file 3, and (with one channel) moves
        // whatever lived on channel 1.
        let new_specs = vec![spec(1, 1, &[8]), spec(3, 2, &[20])];
        let current = CurrentMode {
            specs: &old_specs,
            channels: view(&old),
            dirty: BTreeSet::new(),
        };
        let plan = ModePlanner::fixed(1)
            .plan(&current, &ModeSpec::new("shrunk").files(new_specs))
            .unwrap();
        let t = &plan.transition;
        assert_eq!(t.new_channels, 1);
        assert_eq!(t.old_channels, 2);
        assert_eq!(t.channels.len(), 2);
        assert_eq!(t.channels[1], ChannelTransition::Dropped);
        assert_eq!(t.added, vec![FileId(3)]);
        assert_eq!(t.dropped, vec![FileId(2)]);
        assert!(t.retained.contains(&FileId(1)));
        // Drain horizon covers the dropped file's declared latency.
        assert!(t.drain_horizon >= 10);
    }

    #[test]
    fn mode_profiles_widen_dispersal_in_the_new_design() {
        let specs = vec![spec(1, 2, &[20, 24]), spec(2, 1, &[9])];
        let old = design_of(&specs, 1);
        let current = CurrentMode {
            specs: &specs,
            channels: view(&old),
            dirty: BTreeSet::new(),
        };
        let combat = ModeSpec::new("combat").files(specs.clone()).with_profile(
            ModeProfile::new("combat", RedundancyPolicy::None)
                .with_override(FileId(1), RedundancyPolicy::Maximum),
        );
        let plan = ModePlanner::fixed(1).plan(&current, &combat).unwrap();
        let old_width = old.reports[0]
            .files
            .get(FileId(1))
            .unwrap()
            .dispersed_blocks;
        let new_width = plan.design.reports[0]
            .files
            .get(FileId(1))
            .unwrap()
            .dispersed_blocks;
        assert!(new_width >= 4, "Maximum policy floors the width at 2·m");
        assert!(new_width >= old_width);
        // The widened file's channel necessarily flips.
        assert!(!plan.transition.is_noop());
    }
}
