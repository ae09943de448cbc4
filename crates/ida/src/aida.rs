//! The Adaptive Information Dispersal Algorithm (AIDA).
//!
//! AIDA (paper Section 2.2, Figure 4) inserts a *bandwidth allocation* step
//! between dispersal and transmission: out of the `N` dispersed blocks, only
//! `n ∈ [m, N]` are actually transmitted in a given program data cycle.
//! `n = m` means no redundancy, `n = N` means maximum redundancy, and the
//! choice may differ per file and per *mode of operation* — the paper's
//! example being a "combat" mode that boosts the redundancy of the
//! "location of nearby aircraft" object while a "landing" mode scales it
//! down.
//!
//! Coding goes through the wrapped [`Dispersal`], so AIDA rides the same
//! vectorized slice kernels (precomputed encode plans, systematic fast
//! path, memoised decode plans) — allocation is pure block *selection* and
//! never re-encodes.

use crate::{Dispersal, DispersedBlock, DispersedFile, FileId, IdaError};
use std::collections::HashMap;

/// How many blocks of a dispersed file are actually transmitted.
#[derive(Debug, Clone)]
pub struct BandwidthAllocation {
    file: FileId,
    transmitted: Vec<DispersedBlock>,
    total_available: usize,
}

impl BandwidthAllocation {
    /// The file the allocation applies to.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// The blocks selected for transmission, in index order.
    pub fn blocks(&self) -> &[DispersedBlock] {
        &self.transmitted
    }

    /// Number of blocks selected for transmission (`n`).
    pub fn transmitted_count(&self) -> usize {
        self.transmitted.len()
    }

    /// Number of dispersed blocks that existed before allocation (`N`).
    pub fn total_available(&self) -> usize {
        self.total_available
    }

    /// The number of block losses this allocation tolerates while still
    /// meeting the reconstruction threshold within a single data cycle.
    pub fn fault_tolerance(&self) -> usize {
        let m = self
            .transmitted
            .first()
            .map(|b| b.threshold() as usize)
            .unwrap_or(0);
        self.transmitted.len().saturating_sub(m)
    }

    /// Consumes the allocation and returns the selected blocks.
    pub fn into_blocks(self) -> Vec<DispersedBlock> {
        self.transmitted
    }
}

/// Policy for choosing the per-file transmission count `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedundancyPolicy {
    /// Transmit only the reconstruction threshold `m` (no redundancy).
    None,
    /// Transmit `m + r` blocks: tolerate up to `r` losses per data cycle.
    TolerateFaults {
        /// Number of block-transmission errors to mask.
        faults: usize,
    },
    /// Transmit every dispersed block (maximum redundancy).
    Maximum,
    /// Transmit a fixed number of blocks (clamped into `[m, N]`).
    Fixed {
        /// Number of blocks to transmit.
        count: usize,
    },
}

impl RedundancyPolicy {
    /// Resolves the policy into a concrete transmission count for a dispersal
    /// with threshold `m` and width `n_max`.
    pub fn resolve(&self, m: usize, n_max: usize) -> usize {
        match *self {
            RedundancyPolicy::None => m,
            RedundancyPolicy::TolerateFaults { faults } => (m + faults).min(n_max),
            RedundancyPolicy::Maximum => n_max,
            RedundancyPolicy::Fixed { count } => count.clamp(m, n_max),
        }
    }
}

/// A named mode of operation mapping files to redundancy policies.
///
/// Files not present in the map fall back to the mode's default policy.
#[derive(Debug, Clone)]
pub struct ModeProfile {
    /// Human-readable mode name (e.g. `"combat"`, `"landing"`).
    pub name: String,
    /// Default policy for files without an explicit entry.
    pub default_policy: RedundancyPolicy,
    /// Per-file overrides.
    pub overrides: HashMap<u32, RedundancyPolicy>,
}

impl ModeProfile {
    /// Creates a mode with a default policy and no overrides.
    pub fn new(name: impl Into<String>, default_policy: RedundancyPolicy) -> Self {
        ModeProfile {
            name: name.into(),
            default_policy,
            overrides: HashMap::new(),
        }
    }

    /// Sets the policy for one file.
    pub fn with_override(mut self, file: FileId, policy: RedundancyPolicy) -> Self {
        self.overrides.insert(file.0, policy);
        self
    }

    /// The policy that applies to `file` in this mode.
    pub fn policy_for(&self, file: FileId) -> RedundancyPolicy {
        self.overrides
            .get(&file.0)
            .copied()
            .unwrap_or(self.default_policy)
    }
}

/// AIDA: dispersal plus the adaptive bandwidth-allocation step.
#[derive(Debug, Clone)]
pub struct Aida {
    dispersal: Dispersal,
}

impl Aida {
    /// Wraps a dispersal configuration.
    pub fn new(dispersal: Dispersal) -> Self {
        Aida { dispersal }
    }

    /// Convenience constructor: threshold `m`, maximum width `n_max`.
    pub fn with_params(m: usize, n_max: usize) -> Result<Self, IdaError> {
        Ok(Aida {
            dispersal: Dispersal::new(m, n_max)?,
        })
    }

    /// The underlying dispersal configuration.
    pub fn dispersal(&self) -> &Dispersal {
        &self.dispersal
    }

    /// Disperses a file to the full width `N`.
    pub fn disperse(&self, file: FileId, data: &[u8]) -> Result<DispersedFile, IdaError> {
        self.dispersal.disperse(file, data)
    }

    /// The bandwidth-allocation step: selects `count` of the dispersed blocks
    /// for transmission.  `count` must lie in `[m, N]`.
    pub fn allocate(
        &self,
        dispersed: &DispersedFile,
        count: usize,
    ) -> Result<BandwidthAllocation, IdaError> {
        let m = self.dispersal.threshold();
        let n = self.dispersal.total_blocks();
        if count < m || count > n {
            return Err(IdaError::InvalidAllocation {
                requested: count,
                m,
                n,
            });
        }
        Ok(BandwidthAllocation {
            file: dispersed.file(),
            transmitted: dispersed.blocks()[..count].to_vec(),
            total_available: n,
        })
    }

    /// Allocation driven by a [`RedundancyPolicy`].
    pub fn allocate_by_policy(
        &self,
        dispersed: &DispersedFile,
        policy: RedundancyPolicy,
    ) -> Result<BandwidthAllocation, IdaError> {
        let count = policy.resolve(self.dispersal.threshold(), self.dispersal.total_blocks());
        self.allocate(dispersed, count)
    }

    /// Allocation driven by a mode profile (per-file policy lookup).
    pub fn allocate_for_mode(
        &self,
        dispersed: &DispersedFile,
        mode: &ModeProfile,
    ) -> Result<BandwidthAllocation, IdaError> {
        self.allocate_by_policy(dispersed, mode.policy_for(dispersed.file()))
    }

    /// Reconstructs a file from received blocks (whatever subset survived).
    pub fn reconstruct(&self, blocks: &[DispersedBlock]) -> Result<Vec<u8>, IdaError> {
        self.dispersal.reconstruct(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn allocation_bounds_are_enforced() {
        let aida = Aida::with_params(3, 9).unwrap();
        let df = aida.disperse(FileId(1), &data(90)).unwrap();
        assert!(matches!(
            aida.allocate(&df, 2),
            Err(IdaError::InvalidAllocation { .. })
        ));
        assert!(matches!(
            aida.allocate(&df, 10),
            Err(IdaError::InvalidAllocation { .. })
        ));
        assert_eq!(aida.allocate(&df, 3).unwrap().transmitted_count(), 3);
        assert_eq!(aida.allocate(&df, 9).unwrap().transmitted_count(), 9);
    }

    #[test]
    fn policy_resolution() {
        assert_eq!(RedundancyPolicy::None.resolve(5, 10), 5);
        assert_eq!(
            RedundancyPolicy::TolerateFaults { faults: 3 }.resolve(5, 10),
            8
        );
        assert_eq!(
            RedundancyPolicy::TolerateFaults { faults: 30 }.resolve(5, 10),
            10
        );
        assert_eq!(RedundancyPolicy::Maximum.resolve(5, 10), 10);
        assert_eq!(RedundancyPolicy::Fixed { count: 2 }.resolve(5, 10), 5);
        assert_eq!(RedundancyPolicy::Fixed { count: 7 }.resolve(5, 10), 7);
        assert_eq!(RedundancyPolicy::Fixed { count: 70 }.resolve(5, 10), 10);
    }

    #[test]
    fn fault_tolerance_matches_allocation() {
        let aida = Aida::with_params(5, 10).unwrap();
        let df = aida.disperse(FileId(1), &data(100)).unwrap();
        for r in 0..=5 {
            let alloc = aida
                .allocate_by_policy(&df, RedundancyPolicy::TolerateFaults { faults: r })
                .unwrap();
            assert_eq!(alloc.fault_tolerance(), r);
            assert_eq!(alloc.total_available(), 10);
        }
    }

    #[test]
    fn reconstruction_survives_exactly_r_losses() {
        let aida = Aida::with_params(4, 12).unwrap();
        let payload = data(400);
        let df = aida.disperse(FileId(7), &payload).unwrap();
        let alloc = aida
            .allocate_by_policy(&df, RedundancyPolicy::TolerateFaults { faults: 3 })
            .unwrap();
        assert_eq!(alloc.transmitted_count(), 7);
        // Drop any 3 of the 7 transmitted blocks; reconstruction must succeed.
        let blocks = alloc.blocks();
        let survivors: Vec<_> = blocks.iter().skip(3).cloned().collect();
        assert_eq!(aida.reconstruct(&survivors).unwrap(), payload);
        // Dropping 4 leaves only 3 < m blocks: must fail.
        let too_few: Vec<_> = blocks.iter().skip(4).cloned().collect();
        assert!(aida.reconstruct(&too_few).is_err());
    }

    #[test]
    fn mode_profiles_pick_per_file_policies() {
        let aida = Aida::with_params(3, 9).unwrap();
        let aircraft = FileId(1);
        let terrain = FileId(2);
        let combat = ModeProfile::new("combat", RedundancyPolicy::None)
            .with_override(aircraft, RedundancyPolicy::Maximum);
        let landing = ModeProfile::new("landing", RedundancyPolicy::None)
            .with_override(aircraft, RedundancyPolicy::TolerateFaults { faults: 1 });

        let df_aircraft = aida.disperse(aircraft, &data(33)).unwrap();
        let df_terrain = aida.disperse(terrain, &data(33)).unwrap();

        assert_eq!(
            aida.allocate_for_mode(&df_aircraft, &combat)
                .unwrap()
                .transmitted_count(),
            9
        );
        assert_eq!(
            aida.allocate_for_mode(&df_terrain, &combat)
                .unwrap()
                .transmitted_count(),
            3
        );
        assert_eq!(
            aida.allocate_for_mode(&df_aircraft, &landing)
                .unwrap()
                .transmitted_count(),
            4
        );
    }

    #[test]
    fn allocation_preserves_block_index_order() {
        let aida = Aida::with_params(2, 6).unwrap();
        let df = aida.disperse(FileId(1), &data(64)).unwrap();
        let alloc = aida.allocate(&df, 5).unwrap();
        let indices: Vec<u32> = alloc.blocks().iter().map(|b| b.index()).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
        assert_eq!(alloc.into_blocks().len(), 5);
    }
}
