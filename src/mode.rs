//! Operating modes: the one description of what is on the air, the one
//! loader that turns a design into it, and prepared transitions —
//! everything a swap needs, computed off the hot path.
//!
//! `Mode::load` is the only code that turns a design into dispersals and
//! per-channel servers: [`crate::BroadcastBuilder::build`] calls it for a
//! fresh station, [`crate::Station::prepare_mode`] — having re-planned the
//! target [`bmode::ModeSpec`], or reused the design on the air when the
//! target keeps its specifications — against the serving one, packaging the
//! result as a [`PreparedMode`].  [`crate::Station::swap`] then only
//! installs already-built servers into the epoch bank and replaces the
//! station's mode pointer: cheap, and unable to fail on design grounds.

use crate::{Error, Station};
use bcore::{DesignReport, GeneralizedFileSpec, MultiChannelReport};
use bdisk::{BroadcastFile, BroadcastServer, FileSet, FileSource, LatencyVector};
use bmode::{ChannelTransition, SwapPolicy, TransitionPlan};
use ida::{Bytes, Dispersal, DispersedFile, FileId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use ChannelTransition::Unchanged;

/// The one description of an operating mode: what it was designed from,
/// the verified design, and what its files disperse with and to.  Immutable
/// once loaded — a [`Station`], its clones and runtime snapshots and every
/// [`PreparedMode`] hold it by `Arc`, copying no payload and no report.
///
/// Everything but the payloads derives from the specifications and the
/// design alone, so a later mode that keeps the design (a content refresh)
/// shares all of it by reference count and copies only the payload table.
#[derive(Debug)]
pub(crate) struct Mode {
    pub(crate) name: String,
    pub(crate) specs: Arc<[GeneralizedFileSpec]>,
    pub(crate) design: Arc<MultiChannelReport>,
    /// The per-channel file sets merged back into one, in specification
    /// order.
    pub(crate) files: Arc<FileSet>,
    pub(crate) dispersals: Arc<BTreeMap<FileId, Arc<Dispersal>>>,
    /// Explicitly supplied payloads (files absent here serve deterministic
    /// synthetic contents), shared by reference count with the mode they
    /// were carried over from.  Each is the one copy of its file's bytes:
    /// the file's full systematic blocks are views of it, so a block still
    /// on the air (or in a retained program segment) keeps the content
    /// alive after this mode is gone.
    pub(crate) contents: BTreeMap<FileId, Bytes>,
}

impl Mode {
    /// Everything that happens once a design exists, for a fresh station
    /// (`serving` is `None`) and for a transition alike: verification check,
    /// file-set merge, contents (explicit > carried over > synthetic), one
    /// dispersal configuration per file, one content-loaded server per
    /// channel.  Against a serving station, whatever survives the
    /// transition is reused by handle — payloads, dispersals whose
    /// `(m, n)` are unchanged (which saves only the generator build and
    /// keeps in-flight retrievals on the same configuration), the dispersed
    /// blocks of files that keep both (so refreshing one file disperses
    /// and commits one file) and the servers of unchanged channels (so the
    /// swap keeps them byte-identical for free).  A target that keeps the
    /// design on the air also keeps its merged file set and dispersal
    /// table, so a content refresh does per-file work only for the files
    /// it supplies and on the channels it flips.
    pub(crate) fn load(
        name: &str,
        specs: Arc<[GeneralizedFileSpec]>,
        design: Arc<MultiChannelReport>,
        supplied: BTreeMap<FileId, Vec<u8>>,
        authenticated: bool,
        serving: Option<(&Station, &TransitionPlan)>,
    ) -> Result<(Mode, Vec<Arc<BroadcastServer>>), Error> {
        for report in &design.reports {
            if let Err(msg) = &report.verification {
                return Err(Error::Verification(msg.clone()));
            }
        }
        let current = serving.map(|(station, _)| &*station.mode);
        let kept = current.filter(|mode| Arc::ptr_eq(&mode.design, &design));
        let (files, dispersals) = match kept {
            Some(mode) => (mode.files.clone(), mode.dispersals.clone()),
            None => {
                let files = merge_files(&specs, &design)?;
                let dispersals = dispersals_of(&files, authenticated, current)?;
                (Arc::new(files), Arc::new(dispersals))
            }
        };
        if let Some(id) = supplied.keys().find(|id| files.get(**id).is_none()) {
            return Err(Error::UnknownFile(*id));
        }

        // Retained files keep their stored payloads; supplied ones get one
        // copy into a fresh buffer, not the caller's allocation: keeping
        // the supplied `Vec` made repeated set-ups fault in fresh pages.
        let mut contents: BTreeMap<FileId, Bytes> = match (kept, current) {
            (Some(mode), _) => mode.contents.clone(),
            (None, Some(mode)) => files
                .files()
                .iter()
                .filter_map(|f| Some((f.id, mode.contents.get(&f.id)?.clone())))
                .collect(),
            (None, None) => BTreeMap::new(),
        };
        let fresh: BTreeSet<FileId> = supplied.keys().copied().collect();
        for (id, bytes) in supplied {
            contents.insert(id, Bytes::copy_from_slice(&bytes));
        }

        // A file whose payload and dispersal configuration both ride over
        // unchanged is on the air as exactly the blocks dispersing (and
        // committing) it again would produce, whichever channel the new
        // design places it on.
        let on_air = |f: &BroadcastFile| -> Option<DispersedFile> {
            let (station, _) = serving?;
            let mode = &station.mode;
            let same_payload = match (contents.get(&f.id), mode.contents.get(&f.id)) {
                (Some(new), Some(old)) => same_buffer(new, old),
                (None, None) => mode.files.get(f.id)?.total_bytes() == f.total_bytes(),
                _ => false,
            };
            let dispersal = mode.dispersals.get(&f.id)?;
            if !same_payload || !Arc::ptr_eq(&dispersals[&f.id], dispersal) {
                return None;
            }
            let server = station.bank().current(station.channel_of(f.id)?)?;
            server.dispersed(f.id).cloned()
        };

        let mut servers = Vec::with_capacity(design.reports.len());
        for (c, report) in design.reports.iter().enumerate() {
            let server = match serving {
                Some((station, transition)) if transition.channels[c] == Unchanged => {
                    let server = station.bank().current_arc(c);
                    server.expect("unchanged channels are currently serving")
                }
                // Under a kept design a channel flips only for new bytes:
                // its server on the air, with those files dispersed anew.
                Some((station, _)) if kept.is_some() => {
                    let on_channel = fresh.iter().filter(|id| report.files.get(**id).is_some());
                    let new = on_channel.map(|id| (*id, contents[id].clone())).collect();
                    let serving = station.bank().current(c);
                    let serving = serving.expect("a kept design serves every channel");
                    Arc::new(serving.with_new_contents(&new, &dispersals)?)
                }
                // Dispersed here, off the hot path; payload bytes are
                // independent of the channel layout, so a file reconstructs
                // to identical bytes however the station is sharded.
                _ => Arc::new(BroadcastServer::with_dispersals(
                    &report.files,
                    report.program.clone(),
                    &dispersals,
                    |f| {
                        Some(match on_air(f) {
                            Some(dispersed) => FileSource::Dispersed(dispersed),
                            None => FileSource::Content(match contents.get(&f.id) {
                                Some(stored) => stored.clone(),
                                None => Bytes::from(BroadcastServer::synthetic_content(f)),
                            }),
                        })
                    },
                )?),
            };
            servers.push(server);
        }

        let mode = Mode {
            name: name.to_string(),
            specs,
            design,
            files,
            dispersals,
            contents,
        };
        Ok((mode, servers))
    }

    /// Whether `bytes` is exactly what this mode serves for `file`.  Stored
    /// payloads are compared in place; the synthetic default is only
    /// materialised for files without stored bytes.
    pub(crate) fn serves(&self, file: FileId, bytes: &[u8]) -> bool {
        match self.contents.get(&file) {
            Some(stored) => stored[..] == *bytes,
            None => self
                .files
                .get(file)
                .is_some_and(|f| BroadcastServer::synthetic_content(f) == bytes),
        }
    }
}

/// One dispersal configuration per file of `files`: the one `current`
/// serves the file with when its `(m, n)` and authentication still match,
/// a fresh one otherwise.
fn dispersals_of(
    files: &FileSet,
    authenticated: bool,
    current: Option<&Mode>,
) -> Result<BTreeMap<FileId, Arc<Dispersal>>, Error> {
    let mut dispersals = BTreeMap::new();
    for f in files.files() {
        let (m, n) = (f.size_blocks as usize, f.dispersed_blocks as usize);
        let reused = current
            .and_then(|mode| mode.dispersals.get(&f.id))
            .filter(|d| {
                d.threshold() == m && d.total_blocks() == n && d.is_authenticated() == authenticated
            });
        let dispersal = match reused {
            Some(d) => d.clone(),
            None if authenticated => Arc::new(Dispersal::authenticated(m, n)?),
            None => Arc::new(Dispersal::new(m, n)?),
        };
        dispersals.insert(f.id, dispersal);
    }
    Ok(dispersals)
}

/// Whether two stored payloads are the same buffer, not merely equal bytes.
/// Both are alive, so equal start and length can only be one allocation.
fn same_buffer(a: &Bytes, b: &Bytes) -> bool {
    a.as_ptr() == b.as_ptr() && a.len() == b.len()
}

/// Merges the per-channel file sets of a design back into one, in
/// specification order, so `files()` keeps its pre-sharding shape.
fn merge_files(
    specs: &[GeneralizedFileSpec],
    design: &MultiChannelReport,
) -> Result<FileSet, Error> {
    let mut merged = Vec::with_capacity(specs.len());
    for spec in specs {
        let channel = design
            .channel_of(spec.id)
            .ok_or(Error::UnknownFile(spec.id))?;
        let file = design.reports[channel]
            .files
            .get(spec.id)
            .ok_or(Error::UnknownFile(spec.id))?;
        merged.push(file.clone());
    }
    FileSet::new(merged)
        .ok_or_else(|| Error::UnknownFile(specs.first().map(|s| s.id).unwrap_or(FileId(0))))
}

/// A fully designed, verified and content-loaded target mode, ready to be
/// swapped in by [`crate::Station::swap`].
///
/// Preparation happens against a snapshot of the station (its epoch is
/// recorded); if another swap lands first, the swap of this preparation is
/// rejected with [`crate::Error::StalePreparation`] instead of installing a
/// diff that no longer describes the air.
#[derive(Debug, Clone)]
pub struct PreparedMode {
    pub(crate) servers: Vec<Arc<BroadcastServer>>,
    pub(crate) transition: TransitionPlan,
    pub(crate) handover: Handover,
    pub(crate) base_epoch: u64,
}

impl PreparedMode {
    /// The target mode's name.
    pub fn mode(&self) -> &str {
        &self.handover.to.name
    }

    /// The diff this preparation will execute.
    pub fn transition(&self) -> &TransitionPlan {
        &self.transition
    }

    /// The target mode's verified per-channel designs.
    pub fn design(&self) -> &MultiChannelReport {
        &self.handover.to.design
    }

    /// The per-channel design reports of the target mode.
    pub fn reports(&self) -> &[DesignReport] {
        &self.handover.to.design.reports
    }

    /// Files whose in-flight retrievals survive the swap by transparent
    /// re-subscription (identical dispersal parameters and contents).
    pub fn resubscribable(&self) -> impl Iterator<Item = FileId> + '_ {
        let flips = |channel: usize| self.transition.channels[channel] != Unchanged;
        let retained = self.transition.retained.iter().copied();
        retained.filter(move |&file| self.handover.resubscription(file, flips).is_some())
    }

    /// `true` when swapping this mode in would change nothing on the air.
    pub fn is_noop(&self) -> bool {
        self.transition.is_noop()
    }
}

/// What a swap hands in-flight retrievals across: the mode it leaves, the
/// mode it installs, and the files whose bytes it replaces.  Built in O(1)
/// beyond the replaced files; each retrieval's disposition is worked out
/// when it asks ([`Handover::resubscription`]).
#[derive(Debug, Clone)]
pub(crate) struct Handover {
    pub(crate) from: Arc<Mode>,
    pub(crate) to: Arc<Mode>,
    /// Files whose explicitly supplied bytes differ from what `from` serves.
    pub(crate) dirty: BTreeSet<FileId>,
}

impl Handover {
    /// Transparent re-subscription of an in-flight retrieval of `file`
    /// across the swap — `(new channel, new dispersal, new latency
    /// vector)` — or `None` when the swap cancels it.  A retrieval carries
    /// over when its channel flips (`flips`; one that does not was never
    /// disturbed) and its file stays with identical dispersal parameters
    /// and contents: the blocks it already collected stay valid under the
    /// new program.
    pub(crate) fn resubscription(
        &self,
        file: FileId,
        flips: impl Fn(usize) -> bool,
    ) -> Option<(usize, Arc<Dispersal>, LatencyVector)> {
        let (from, to) = (&self.from, &self.to);
        let (old, new) = (from.files.get(file)?, to.files.get(file)?);
        let disturbed = flips(from.design.channel_of(file)?);
        let compatible = old.size_blocks == new.size_blocks
            && old.dispersed_blocks == new.dispersed_blocks
            && old.block_bytes == new.block_bytes
            && !self.dirty.contains(&file);
        if !(disturbed && compatible) {
            return None;
        }
        let channel = to.design.channel_of(file)?;
        Some((channel, to.dispersals[&file].clone(), new.latencies.clone()))
    }
}

/// What a [`crate::Station::swap`] did.
#[derive(Debug, Clone)]
pub struct SwapReport {
    /// The mode now (or soon) on the air.
    pub mode: String,
    /// The epoch the flipped channels serve under.
    pub epoch: u64,
    /// The slot at which the swap was requested.
    pub requested_slot: usize,
    /// The slot at which the changed channels flip (equals `requested_slot`
    /// under [`SwapPolicy::Immediate`]; deferred past the drain horizon
    /// under [`SwapPolicy::Drain`]).
    pub flip_slot: usize,
    /// The policy the swap was executed under.
    pub policy: SwapPolicy,
    /// The transition that was installed.
    pub transition: TransitionPlan,
    /// The channels that actually flipped; every other channel broadcasts
    /// byte-identically across the swap.
    pub flipped_channels: Vec<usize>,
}

impl SwapReport {
    /// Slots between the swap request and the flip — the transition latency
    /// the policy paid (0 for immediate swaps).
    pub fn swap_latency(&self) -> usize {
        self.flip_slot - self.requested_slot
    }
}

impl core::fmt::Display for SwapReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "swapped to `{}` (epoch {}): requested at slot {}, flips at slot {} ({} policy), \
             channels {:?} changed",
            self.mode,
            self.epoch,
            self.requested_slot,
            self.flip_slot,
            self.policy,
            self.flipped_channels
        )
    }
}
