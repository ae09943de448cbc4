//! The Adaptive Information Dispersal Algorithm's redundancy policies.
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
//! This module holds the vocabulary of that step: a per-file
//! [`RedundancyPolicy`] and the per-mode [`ModeProfile`] mapping files to
//! policies.  `bmode` resolves a profile into each file's dispersal width
//! when it plans a mode.

use crate::FileId;
use std::collections::HashMap;

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
