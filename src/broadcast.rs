//! The broadcast builder: specifications in, a serving [`Station`] out.

use crate::mode::Mode;
use crate::station::Settings;
use crate::{Error, Station};
use bcore::{BdiskDesigner, GeneralizedFileSpec, MultiChannelDesigner, ShardPlanner};
use ida::FileId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Entry point of the facade.
///
/// ```
/// use rtbdisk::{Broadcast, GeneralizedFileSpec, FileId};
///
/// let station = Broadcast::builder()
///     .file(GeneralizedFileSpec::new(FileId(1), 2, vec![10, 14]).unwrap())
///     .file(GeneralizedFileSpec::new(FileId(2), 1, vec![7]).unwrap())
///     .build()
///     .unwrap();
/// assert_eq!(station.files().len(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Broadcast;

impl Broadcast {
    /// Starts building a broadcast disk.
    pub fn builder() -> BroadcastBuilder {
        BroadcastBuilder::default()
    }
}

/// Builder for a [`Station`]: collect file specifications (and optionally
/// contents, a channel count and a listen cap), then [`build`].
///
/// [`build`]: BroadcastBuilder::build
#[derive(Debug, Clone)]
pub struct BroadcastBuilder {
    specs: Vec<GeneralizedFileSpec>,
    contents: BTreeMap<FileId, Vec<u8>>,
    settings: Settings,
}

impl Default for BroadcastBuilder {
    fn default() -> Self {
        BroadcastBuilder {
            specs: Vec::new(),
            contents: BTreeMap::new(),
            settings: Settings {
                channels: ShardPlanner::fixed(1),
                listen_cap: 100_000,
                authenticated: false,
            },
        }
    }
}

impl BroadcastBuilder {
    /// Adds one file specification.
    pub fn file(mut self, spec: GeneralizedFileSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Adds many file specifications.
    pub fn files(mut self, specs: impl IntoIterator<Item = GeneralizedFileSpec>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Supplies the contents of one file (must be exactly
    /// `size_blocks × block_bytes` bytes).  Files without supplied contents
    /// are served deterministic synthetic payloads — convenient for
    /// simulations that only care about timing.
    pub fn content(mut self, file: FileId, bytes: impl Into<Vec<u8>>) -> Self {
        self.contents.insert(file, bytes.into());
        self
    }

    /// Shards the file set across exactly `k` parallel broadcast channels
    /// (`k` is clamped to at least 1; default 1 — the paper's single-channel
    /// model).  Files are partitioned by greedy density balancing, each
    /// channel under its own density ≤ 1 budget; see [`bcore::ShardPlanner`].
    pub fn channels(mut self, k: usize) -> Self {
        self.settings.channels = ShardPlanner::fixed(k);
        self
    }

    /// Shards the file set across as few channels as the density packing
    /// needs — a set infeasible on one channel splits instead of failing.
    pub fn auto_channels(mut self) -> Self {
        self.settings.channels = ShardPlanner::auto();
        self
    }

    /// Sets the maximum number of slots a driven retrieval may listen before
    /// [`Station::run_until_complete`] gives up (default `100_000`).
    pub fn listen_cap(mut self, slots: usize) -> Self {
        self.settings.listen_cap = slots.max(1);
        self
    }

    /// Commits every file's dispersed blocks to a Merkle root at build time
    /// (and again at every re-dispersal a mode swap triggers), so clients
    /// can verify each received block against the root before it enters
    /// reconstruction.  Roots ride the station's program metadata — see
    /// [`Station::commitment_root_of`] — and a [`crate::Retrieval`] from an
    /// authenticated station rejects tampered blocks as typed erasures
    /// instead of reconstructing poisoned bytes.  Default `false`.
    pub fn authenticated(mut self, on: bool) -> Self {
        self.settings.authenticated = on;
        self
    }

    /// Runs the full design pipeline and returns a serving [`Station`].
    ///
    /// Pipeline: specifications → shard plan (one shard per channel) →
    /// per-channel broadcast conditions → nice pinwheel conjunct → schedule
    /// (by the [`pinwheel::AutoScheduler`] cascade) → AIDA block layout →
    /// verification → dispersal of contents.  A program that fails
    /// verification against its own broadcast conditions is never returned,
    /// on any channel.
    pub fn build(self) -> Result<Station, Error> {
        let settings = self.settings;
        let designer = MultiChannelDesigner::new(settings.channels, BdiskDesigner::default());
        let design = designer.design(&self.specs)?;
        // Supplied contents stay with the mode, so a later swap carries
        // retained files' payloads over; the rest serve synthetic defaults.
        let (mode, servers) = Mode::load(
            "initial",
            self.specs.into(),
            Arc::new(design),
            self.contents,
            settings.authenticated,
            None,
        )?;
        Station::new(settings, mode, servers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcore::DesignError;
    use bdisk::NoErrors;

    fn spec(id: u32, size: u32, latencies: &[u32]) -> GeneralizedFileSpec {
        GeneralizedFileSpec::new(FileId(id), size, latencies.to_vec()).unwrap()
    }

    #[test]
    fn build_designs_and_loads_a_station() {
        let station = Broadcast::builder()
            .file(spec(1, 2, &[10, 12]))
            .file(spec(2, 1, &[7]))
            .build()
            .unwrap();
        assert_eq!(station.files().len(), 2);
        assert!(station.density() <= 1.0);
        assert!(station.report().verification.is_ok());
    }

    #[test]
    fn supplied_contents_are_served() {
        let s = spec(1, 1, &[6]);
        let bytes: Vec<u8> = (0..512u32).map(|i| i as u8).collect();
        let station = Broadcast::builder()
            .file(s)
            .content(FileId(1), bytes.clone())
            .build()
            .unwrap();
        let outcome = station.retrieve(FileId(1), 0, &mut NoErrors).unwrap();
        assert_eq!(outcome.data, bytes);
    }

    #[test]
    fn content_for_unknown_file_is_rejected() {
        let err = Broadcast::builder()
            .file(spec(1, 1, &[6]))
            .content(FileId(9), vec![0u8; 512])
            .build()
            .unwrap_err();
        assert_eq!(err, Error::UnknownFile(FileId(9)));
    }

    #[test]
    fn wrong_sized_content_is_rejected_by_the_server() {
        let err = Broadcast::builder()
            .file(spec(1, 1, &[6]))
            .content(FileId(1), vec![0u8; 3])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Server(bdisk::ServerError::ContentSizeMismatch { .. })
        ));
    }

    #[test]
    fn infeasible_specifications_surface_the_design_error() {
        let err = Broadcast::builder()
            .files([spec(1, 1, &[2]), spec(2, 1, &[2]), spec(3, 1, &[2])])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::Design(DesignError::DensityExceedsOne { .. })
        ));
    }

    #[test]
    fn empty_builder_is_rejected() {
        assert!(matches!(
            Broadcast::builder().build().unwrap_err(),
            Error::Design(DesignError::NoFiles)
        ));
    }

    #[test]
    fn channels_shard_the_file_set() {
        let station = Broadcast::builder()
            .files((1..=4).map(|i| spec(i, 1, &[6 + 2 * i])))
            .channels(2)
            .build()
            .unwrap();
        assert_eq!(station.channel_count(), 2);
        assert_eq!(station.files().len(), 4);
        for i in 1..=4 {
            let channel = station.channel_of(FileId(i)).unwrap();
            assert!(channel < 2);
            assert!(station.program_of(channel).unwrap().occurrences(FileId(i)) > 0);
        }
        for c in 0..station.channel_count() {
            assert!(station.density_of(c).unwrap() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn auto_channels_split_an_infeasible_set() {
        // Three half-channel files: infeasible on one channel (see
        // `infeasible_specifications_surface_the_design_error`), feasible on
        // two.
        let station = Broadcast::builder()
            .files([spec(1, 1, &[2]), spec(2, 1, &[2]), spec(3, 1, &[2])])
            .auto_channels()
            .build()
            .unwrap();
        assert_eq!(station.channel_count(), 2);
        let outcome = station.retrieve(FileId(3), 1, &mut NoErrors).unwrap();
        assert!(!outcome.data.is_empty());
    }

    #[test]
    fn one_channel_stations_match_the_plain_designer() {
        let specs = vec![spec(1, 2, &[10, 12]), spec(2, 1, &[7])];
        let station = Broadcast::builder()
            .files(specs.clone())
            .channels(1)
            .build()
            .unwrap();
        let plain = BdiskDesigner::default().design(&specs).unwrap();
        assert_eq!(station.channel_count(), 1);
        assert_eq!(station.program().entries(), plain.program.entries());
        assert_eq!(station.density(), plain.density);
    }
}
