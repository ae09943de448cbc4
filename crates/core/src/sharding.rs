//! Sharded (multi-channel) broadcast design.
//!
//! The paper designs one broadcast program for one channel; a station with
//! `k` parallel channels can carry `k` disjoint file sets, each under its own
//! density budget (the Lemma 3 pipeline applies per channel unchanged).  This
//! module provides the partitioning step and the per-shard design loop:
//!
//! * [`ShardPlanner`] — partitions [`GeneralizedFileSpec`]s across channels
//!   by greedy density balancing (longest-processing-time style: heaviest
//!   file first onto the lightest channel), with a per-channel density
//!   budget of 1.  In *auto* mode it starts from `⌈Σ densityᵢ⌉` channels and
//!   adds channels until the greedy packing fits.
//! * [`MultiChannelDesigner`] — runs the existing [`BdiskDesigner`] once per
//!   shard, yielding one verified [`DesignReport`] per channel.
//!
//! The per-file density used for balancing is the density of the file's best
//! *nice* conjunct — exactly the quantity the designer will later schedule,
//! so the planner's budget check is not an estimate: a channel the planner
//! accepts has a merged conjunct density equal to the sum of its files'
//! planned densities.

use crate::designer::{BdiskDesigner, DesignError, DesignReport, GeneralizedFileSpec};
use crate::transform::{convert_to_nice, TaskIdAllocator};
use ida::FileId;
use pinwheel::{AutoScheduler, PinwheelScheduler};
use std::collections::BTreeMap;

/// How many channels a [`ShardPlanner`] may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChannelBudget {
    /// Exactly this many channels (at least 1).
    Fixed(usize),
    /// As few channels as the greedy packing needs.
    Auto,
}

/// A partition of a specification set across broadcast channels.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Per-channel specification lists.  Within each shard the original
    /// input order is preserved, so a one-channel plan reproduces the
    /// single-channel design pipeline byte for byte.
    pub shards: Vec<Vec<GeneralizedFileSpec>>,
    /// File → channel index.
    pub assignment: BTreeMap<FileId, usize>,
    /// Planned per-channel density (sum of the shard's per-file nice-conjunct
    /// densities — the quantity the per-shard designer will schedule).
    pub densities: Vec<f64>,
}

impl ShardPlan {
    /// Number of channels in the plan.
    pub fn channel_count(&self) -> usize {
        self.shards.len()
    }

    /// The channel a file was assigned to.
    pub fn channel_of(&self, file: FileId) -> Option<usize> {
        self.assignment.get(&file).copied()
    }

    /// The heaviest planned per-channel density.
    pub fn max_density(&self) -> f64 {
        self.densities.iter().copied().fold(0.0, f64::max)
    }
}

/// Partitions file specifications across broadcast channels under a
/// per-channel density budget of 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlanner {
    channels: ChannelBudget,
}

/// Slack kept below the exact density budget of 1, mirroring the designer's
/// own `1 + 1e-12` feasibility tolerance.
const DENSITY_EPS: f64 = 1e-12;

impl ShardPlanner {
    /// Plans for exactly `k` channels (`k` is clamped to at least 1).
    pub fn fixed(k: usize) -> Self {
        ShardPlanner {
            channels: ChannelBudget::Fixed(k.max(1)),
        }
    }

    /// Plans for as few channels as the packing needs.
    pub fn auto() -> Self {
        ShardPlanner {
            channels: ChannelBudget::Auto,
        }
    }

    /// Partitions `specs` across channels.
    ///
    /// Channels that would end up empty (more channels than files) are
    /// dropped from the plan — an empty channel broadcasts nothing and has
    /// no design.  Fails with [`DesignError::DensityExceedsOne`] when the
    /// set cannot fit one requested channel, and with
    /// [`DesignError::ChannelOverload`] when greedy balancing cannot fit a
    /// fixed count of several channels.
    pub fn plan(&self, specs: &[GeneralizedFileSpec]) -> Result<ShardPlan, DesignError> {
        if specs.is_empty() {
            return Err(DesignError::NoFiles);
        }
        for (i, s) in specs.iter().enumerate() {
            if specs.iter().skip(i + 1).any(|t| t.id == s.id) {
                return Err(DesignError::DuplicateFile(s.id));
            }
        }

        // Per-file density of the best nice conjunct (ids from a throwaway
        // allocator: the density does not depend on task numbering).
        let mut densities = Vec::with_capacity(specs.len());
        for spec in specs {
            let mut ids = TaskIdAllocator::new(1);
            let candidate = convert_to_nice(&spec.condition(), &mut ids)?;
            if candidate.density > 1.0 + DENSITY_EPS {
                // No channel can carry this file alone.
                return Err(DesignError::DensityExceedsOne {
                    density: candidate.density,
                });
            }
            densities.push(candidate.density);
        }
        let total: f64 = densities.iter().sum();

        match self.channels {
            // A one-channel miss genuinely is the paper's density-exceeds-one
            // condition; a k-channel miss is a packing failure (greedy is not
            // an optimal bin-packer), reported as such.
            ChannelBudget::Fixed(1) => greedy_pack(specs, &densities, 1)
                .ok_or(DesignError::DensityExceedsOne { density: total }),
            ChannelBudget::Fixed(k) => {
                greedy_pack(specs, &densities, k).ok_or(DesignError::ChannelOverload {
                    channels: k,
                    total_density: total,
                })
            }
            ChannelBudget::Auto => {
                let mut k = (total.ceil() as usize).max(1);
                loop {
                    if let Some(plan) = greedy_pack(specs, &densities, k) {
                        return Ok(plan);
                    }
                    // Greedy packing is not optimal; retry with one more
                    // channel.  Terminates: with k = specs.len() every file
                    // sits alone, and each fits (checked above).
                    k += 1;
                    debug_assert!(k <= specs.len());
                }
            }
        }
    }
}

/// Greedy density balancing: files in decreasing density order (ties broken
/// by input position, so the plan is deterministic), each onto the currently
/// lightest channel.  Returns `None` when some channel would exceed the
/// density budget of 1.
fn greedy_pack(specs: &[GeneralizedFileSpec], densities: &[f64], k: usize) -> Option<ShardPlan> {
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by(|&a, &b| {
        densities[b]
            .partial_cmp(&densities[a])
            .expect("densities are finite")
            .then(a.cmp(&b))
    });

    let mut loads = vec![0.0f64; k];
    let mut member_indices: Vec<Vec<usize>> = vec![Vec::new(); k];
    for &i in &order {
        let lightest = loads
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("loads are finite"))
            .map(|(c, _)| c)
            .expect("k >= 1");
        if loads[lightest] + densities[i] > 1.0 + DENSITY_EPS {
            return None;
        }
        loads[lightest] += densities[i];
        member_indices[lightest].push(i);
    }

    // Drop empty channels and restore the input order within each shard.
    let mut shards = Vec::new();
    let mut shard_densities = Vec::new();
    let mut assignment = BTreeMap::new();
    for (members, load) in member_indices.into_iter().zip(loads) {
        if members.is_empty() {
            continue;
        }
        let mut members = members;
        members.sort_unstable();
        let channel = shards.len();
        for &i in &members {
            assignment.insert(specs[i].id, channel);
        }
        shards.push(members.into_iter().map(|i| specs[i].clone()).collect());
        shard_densities.push(load);
    }
    Some(ShardPlan {
        shards,
        assignment,
        densities: shard_densities,
    })
}

/// The result of a successful multi-channel design: one verified
/// [`DesignReport`] per channel, plus the plan that produced it.
#[derive(Debug, Clone)]
pub struct MultiChannelReport {
    /// The partition the designs were built from.
    pub plan: ShardPlan,
    /// One design report per channel, aligned with `plan.shards`.
    pub reports: Vec<DesignReport>,
}

impl MultiChannelReport {
    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.reports.len()
    }

    /// The channel carrying `file`.
    pub fn channel_of(&self, file: FileId) -> Option<usize> {
        self.plan.channel_of(file)
    }

    /// The heaviest realized per-channel density (each is the density of that
    /// channel's scheduled nice conjunct).
    pub fn max_density(&self) -> f64 {
        self.reports.iter().map(|r| r.density).fold(0.0, f64::max)
    }
}

/// Designs one broadcast program per channel: a [`ShardPlanner`] partition
/// followed by the single-channel [`BdiskDesigner`] on every shard.
///
/// In auto mode a shard whose *scheduling* fails (the planner's density check
/// passed but the scheduler cascade declined the instance) triggers a re-plan
/// with one more channel, so pathological packings degrade into more, lighter
/// channels instead of an error.
#[derive(Debug, Clone)]
pub struct MultiChannelDesigner<S: PinwheelScheduler = AutoScheduler> {
    planner: ShardPlanner,
    designer: BdiskDesigner<S>,
}

impl MultiChannelDesigner<AutoScheduler> {
    /// A designer for exactly `k` channels, with the default scheduler
    /// cascade.
    pub fn fixed(k: usize) -> Self {
        Self::new(ShardPlanner::fixed(k), BdiskDesigner::default())
    }

    /// A designer that uses as few channels as needed, with the default
    /// scheduler cascade.
    pub fn auto() -> Self {
        Self::new(ShardPlanner::auto(), BdiskDesigner::default())
    }
}

impl<S: PinwheelScheduler> MultiChannelDesigner<S> {
    /// Combines a planner with a per-shard designer.
    pub fn new(planner: ShardPlanner, designer: BdiskDesigner<S>) -> Self {
        MultiChannelDesigner { planner, designer }
    }

    /// The planner partitioning the file set.
    pub fn planner(&self) -> &ShardPlanner {
        &self.planner
    }

    /// The designer run on every shard.
    pub fn designer(&self) -> &BdiskDesigner<S> {
        &self.designer
    }

    /// Partitions `specs` and designs a broadcast program per shard.
    pub fn design(&self, specs: &[GeneralizedFileSpec]) -> Result<MultiChannelReport, DesignError> {
        let auto = self.planner.channels == ChannelBudget::Auto;
        let mut planner = self.planner;
        loop {
            let plan = planner.plan(specs)?;
            match self.design_plan(&plan) {
                Ok(reports) => return Ok(MultiChannelReport { plan, reports }),
                Err(e @ DesignError::Scheduling(_)) if auto => {
                    let next = plan.channel_count() + 1;
                    if next > specs.len() {
                        return Err(e);
                    }
                    planner = ShardPlanner::fixed(next);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn design_plan(&self, plan: &ShardPlan) -> Result<Vec<DesignReport>, DesignError> {
        plan.shards
            .iter()
            .map(|shard| self.designer.design(shard))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: u32, size: u32, latencies: &[u32]) -> GeneralizedFileSpec {
        GeneralizedFileSpec::new(FileId(id), size, latencies.to_vec()).unwrap()
    }

    #[test]
    fn one_channel_plan_preserves_the_input_order() {
        let specs = vec![spec(3, 1, &[9]), spec(1, 2, &[10, 12]), spec(2, 1, &[7])];
        let plan = ShardPlanner::fixed(1).plan(&specs).unwrap();
        assert_eq!(plan.channel_count(), 1);
        assert_eq!(plan.shards[0], specs);
        assert!(plan.max_density() <= 1.0 + 1e-12);
    }

    #[test]
    fn every_file_lands_on_exactly_one_channel() {
        let specs: Vec<_> = (1..=6).map(|i| spec(i, 1, &[8 + i, 12 + i])).collect();
        let plan = ShardPlanner::fixed(3).plan(&specs).unwrap();
        assert_eq!(plan.channel_count(), 3);
        let mut seen = 0usize;
        for (c, shard) in plan.shards.iter().enumerate() {
            for f in shard {
                assert_eq!(plan.channel_of(f.id), Some(c));
                seen += 1;
            }
        }
        assert_eq!(seen, specs.len());
        assert_eq!(plan.assignment.len(), specs.len());
    }

    #[test]
    fn balancing_splits_an_overcommitted_single_channel() {
        // Three half-channel files: infeasible on one channel, fine on two.
        let specs = vec![spec(1, 1, &[2]), spec(2, 1, &[2]), spec(3, 1, &[2])];
        assert!(matches!(
            ShardPlanner::fixed(1).plan(&specs),
            Err(DesignError::DensityExceedsOne { .. })
        ));
        let plan = ShardPlanner::auto().plan(&specs).unwrap();
        assert_eq!(plan.channel_count(), 2);
        assert!(plan.max_density() <= 1.0 + 1e-12);
    }

    #[test]
    fn a_full_channel_file_gets_a_channel_of_its_own() {
        // F1 needs one block every slot (density 1): it saturates a channel,
        // so a companion file must land on a second one.
        let specs = vec![spec(1, 1, &[1]), spec(2, 1, &[8])];
        assert!(matches!(
            ShardPlanner::fixed(1).plan(&specs),
            Err(DesignError::DensityExceedsOne { .. })
        ));
        let plan = ShardPlanner::auto().plan(&specs).unwrap();
        assert_eq!(plan.channel_count(), 2);
        assert_ne!(plan.channel_of(FileId(1)), plan.channel_of(FileId(2)));
    }

    #[test]
    fn more_channels_than_files_drops_the_empty_ones() {
        let specs = vec![spec(1, 1, &[6]), spec(2, 1, &[8])];
        let plan = ShardPlanner::fixed(4).plan(&specs).unwrap();
        assert_eq!(plan.channel_count(), 2);
        assert!(plan.shards.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn fixed_multi_channel_misses_report_overload_not_density() {
        // Three full-channel files cannot fit two channels: the error names
        // the channel count, not the (meaningless here) "exceeds one".
        let specs = vec![spec(1, 1, &[1]), spec(2, 1, &[1]), spec(3, 1, &[1])];
        match ShardPlanner::fixed(2).plan(&specs) {
            Err(DesignError::ChannelOverload {
                channels,
                total_density,
            }) => {
                assert_eq!(channels, 2);
                assert!((total_density - 3.0).abs() < 1e-9);
            }
            other => panic!("expected ChannelOverload, got {other:?}"),
        }
        // One channel keeps the paper's density-exceeds-one diagnosis.
        assert!(matches!(
            ShardPlanner::fixed(1).plan(&specs),
            Err(DesignError::DensityExceedsOne { .. })
        ));
    }

    #[test]
    fn empty_and_duplicate_inputs_are_rejected() {
        assert_eq!(
            ShardPlanner::auto().plan(&[]).unwrap_err(),
            DesignError::NoFiles
        );
        let dup = vec![spec(1, 1, &[4]), spec(1, 1, &[5])];
        assert_eq!(
            ShardPlanner::fixed(2).plan(&dup).unwrap_err(),
            DesignError::DuplicateFile(FileId(1))
        );
    }

    #[test]
    fn multi_channel_design_verifies_every_shard() {
        let specs: Vec<_> = (1..=4).map(|i| spec(i, 1, &[6 + 2 * i])).collect();
        let report = MultiChannelDesigner::fixed(2).design(&specs).unwrap();
        assert_eq!(report.channel_count(), 2);
        assert!(report.max_density() <= 1.0 + 1e-12);
        for (c, r) in report.reports.iter().enumerate() {
            assert!(r.verification.is_ok(), "channel {c}: {:?}", r.verification);
            for s in &report.plan.shards[c] {
                assert!(r.program.occurrences(s.id) > 0);
            }
        }
    }

    #[test]
    fn single_channel_design_matches_the_plain_designer() {
        let specs = vec![spec(1, 2, &[10, 12]), spec(2, 1, &[7])];
        let sharded = MultiChannelDesigner::fixed(1).design(&specs).unwrap();
        let plain = BdiskDesigner::default().design(&specs).unwrap();
        assert_eq!(sharded.channel_count(), 1);
        let r = &sharded.reports[0];
        assert_eq!(r.program.entries(), plain.program.entries());
        assert_eq!(r.density, plain.density);
    }

    #[test]
    fn auto_design_of_a_heavy_mix_stays_within_budget() {
        // Twelve files totalling well above one channel's density.
        let specs: Vec<_> = (1..=12).map(|i| spec(i, 1, &[4 + (i % 3)])).collect();
        let report = MultiChannelDesigner::auto().design(&specs).unwrap();
        assert!(report.channel_count() >= 3);
        for r in &report.reports {
            assert!(r.density <= 1.0 + 1e-12);
            assert!(r.verification.is_ok());
        }
        // Every file is routed.
        for s in &specs {
            assert!(report.channel_of(s.id).is_some());
        }
    }
}
