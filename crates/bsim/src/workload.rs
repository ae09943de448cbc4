//! Workload generators.
//!
//! Two kinds of inputs are produced:
//!
//! * [`bdisk::FileSet`]s for program-level experiments (file sizes,
//!   dispersal widths, latencies in slots);
//! * [`bcore::FileRequirement`]s for bandwidth-planning experiments (sizes in
//!   blocks, latencies in seconds, per-file fault-tolerance), matching the
//!   inputs of Equations 1 and 2.
//!
//! The paper motivates its model with two applications; both are provided as
//! ready-made scenarios with the paper's own numbers:
//!
//! * **AWACS** — aircraft position objects with a 400 ms absolute temporal
//!   consistency constraint (900 km/h → 100 m accuracy) and tank positions
//!   with a 6 000 ms constraint;
//! * **IVHS** — route/incident data broadcast to vehicles, with a mix of
//!   small hot objects and large cold ones.

use bcore::FileRequirement;
use bdisk::{BroadcastFile, FileSet};
use ida::FileId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for random file-requirement generation.  Sizes are drawn
/// uniformly from 1–50 blocks and latencies from 0.5–30 s.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of files.
    pub files: usize,
    /// Maximum per-file fault-tolerance requirement (faults are drawn
    /// uniformly from `0..=max_faults`).
    pub max_faults: u32,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            files: 20,
            max_faults: 3,
        }
    }
}

/// Smallest and largest generated file size, in blocks.
const BLOCKS: std::ops::RangeInclusive<u32> = 1..=50;
/// Shortest and longest generated latency, in seconds.
const LATENCY_SECONDS: std::ops::RangeInclusive<f64> = 0.5..=30.0;

/// Deterministic random generator of planner inputs.
#[derive(Debug, Clone)]
pub struct RequirementGenerator {
    config: WorkloadConfig,
    rng: StdRng,
}

impl RequirementGenerator {
    /// Creates a generator with a fixed seed (experiments are reproducible).
    pub fn new(config: WorkloadConfig, seed: u64) -> Self {
        RequirementGenerator {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Generates one batch of file requirements.
    pub fn generate(&mut self) -> Vec<FileRequirement> {
        let c = &self.config;
        (0..c.files)
            .map(|_| {
                let size = self.rng.gen_range(BLOCKS);
                let latency = self.rng.gen_range(LATENCY_SECONDS);
                let faults = self.rng.gen_range(0..=c.max_faults);
                FileRequirement::new(size, latency).with_faults(faults)
            })
            .collect()
    }
}

/// The AWACS scenario from the paper's introduction: per-object temporal
/// consistency constraints derived from object dynamics.  Latencies are in
/// seconds; sizes are small telemetry records (1 block each) plus a couple
/// of larger situational objects.
pub fn awacs_scenario() -> Vec<FileRequirement> {
    vec![
        // Aircraft position, 900 km/h, 100 m accuracy → 400 ms.
        FileRequirement::new(1, 0.4).with_faults(2),
        // Second aircraft track.
        FileRequirement::new(1, 0.4).with_faults(2),
        // Tank position, 60 km/h → 6 s.
        FileRequirement::new(1, 6.0).with_faults(1),
        // Threat assessment summary.
        FileRequirement::new(4, 10.0).with_faults(1),
        // Terrain / map tile.
        FileRequirement::new(16, 60.0),
    ]
}

/// The IVHS scenario: route guidance and incident data for vehicles.
pub fn ivhs_scenario() -> Vec<FileRequirement> {
    vec![
        // Traffic incident alerts: small and urgent, must survive losses.
        FileRequirement::new(1, 1.0).with_faults(2),
        // Link travel times for the local area.
        FileRequirement::new(8, 15.0).with_faults(1),
        // Regional congestion map.
        FileRequirement::new(24, 60.0).with_faults(1),
        // Points-of-interest database delta.
        FileRequirement::new(40, 300.0),
        // Road-works schedule.
        FileRequirement::new(12, 120.0),
    ]
}

/// Builds a [`FileSet`] (program-level model) with `files` files of
/// `blocks_per_file` blocks each, dispersed by `dispersal_factor` (e.g. 2.0
/// doubles every file's block count à la Figure 6).
pub fn uniform_file_set(
    files: u32,
    blocks_per_file: u32,
    block_bytes: u32,
    dispersal_factor: f64,
) -> FileSet {
    let set: Vec<BroadcastFile> = (0..files)
        .map(|i| {
            let dispersed = (f64::from(blocks_per_file) * dispersal_factor).round() as u32;
            BroadcastFile::new(FileId(i), format!("F{i}"), blocks_per_file, block_bytes)
                .with_dispersal(dispersed)
        })
        .collect();
    FileSet::new(set).expect("ids are unique by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_respects_bounds() {
        let config = WorkloadConfig::default();
        let a = RequirementGenerator::new(config.clone(), 7).generate();
        let b = RequirementGenerator::new(config.clone(), 7).generate();
        assert_eq!(a.len(), config.files);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.size_blocks, y.size_blocks);
            assert!((x.latency_seconds - y.latency_seconds).abs() < 1e-12);
            assert_eq!(x.faults, y.faults);
            assert!(BLOCKS.contains(&x.size_blocks));
            assert!(LATENCY_SECONDS.contains(&x.latency_seconds));
            assert!(x.faults <= config.max_faults);
        }
        let c = RequirementGenerator::new(config, 8).generate();
        assert!(a.iter().zip(&c).any(|(x, y)| x.size_blocks != y.size_blocks
            || (x.latency_seconds - y.latency_seconds).abs() > 1e-12));
    }

    #[test]
    fn scenarios_are_plannable() {
        use bcore::Planner;
        for scenario in [awacs_scenario(), ivhs_scenario()] {
            let plan = Planner.plan(&scenario).unwrap();
            assert!(plan.chan_chin_bound >= plan.lower_bound);
            assert!(plan.overhead <= 0.5);
        }
    }

    #[test]
    fn uniform_file_set_matches_parameters() {
        let set = uniform_file_set(10, 20, 64, 2.0);
        assert_eq!(set.len(), 10);
        assert_eq!(set.total_blocks(), 200);
        assert_eq!(set.total_dispersed_blocks(), 400);
    }
}
