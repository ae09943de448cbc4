//! The broadcast server: dispersing file contents and emitting the program.

use crate::{BroadcastFile, BroadcastProgram, FileSet, ProgramEntry};
use ida::{BlockHeader, Bytes, Dispersal, DispersedBlock, DispersedFile, FileId, IdaError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A borrowed view of one slot's transmission — the zero-copy hot path used
/// by the facade slot-driver and the simulator.
#[derive(Debug, Clone, Copy)]
pub struct TransmissionRef<'a> {
    /// The slot (time) of the transmission.
    pub slot: usize,
    /// The transmitted block (borrowed from the server).
    pub block: &'a DispersedBlock,
}

/// Errors raised when assembling a server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// Content was supplied for a file id that is not in the file set.
    UnknownFile(FileId),
    /// A multi-channel bank was assembled with no channels.
    NoChannels,
    /// Two channels of a multi-channel bank carry the same file, so the
    /// file → channel routing table would be ambiguous.
    DuplicateFile(FileId),
    /// No content was supplied for a file that the program transmits.
    MissingContent(FileId),
    /// The supplied content length does not match the file's declared size.
    ContentSizeMismatch {
        /// The offending file.
        file: FileId,
        /// Declared size in bytes.
        expected: usize,
        /// Supplied size in bytes.
        actual: usize,
    },
    /// Dispersal of a file's content failed.
    Ida(IdaError),
    /// A program swap was requested with a flip slot earlier than a flip
    /// already installed (slot time is monotonic).
    SwapInPast {
        /// The requested flip slot.
        flip_slot: usize,
        /// The earliest admissible flip slot.
        frontier: usize,
    },
}

impl core::fmt::Display for ServerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServerError::UnknownFile(id) => write!(f, "content supplied for unknown file {id}"),
            ServerError::NoChannels => write!(f, "a channel bank needs at least one channel"),
            ServerError::DuplicateFile(id) => {
                write!(f, "file {id} is carried by more than one channel")
            }
            ServerError::MissingContent(id) => write!(f, "no content supplied for file {id}"),
            ServerError::ContentSizeMismatch {
                file,
                expected,
                actual,
            } => write!(
                f,
                "file {file} declared {expected} bytes but {actual} were supplied"
            ),
            ServerError::Ida(e) => write!(f, "dispersal failed: {e}"),
            ServerError::SwapInPast {
                flip_slot,
                frontier,
            } => write!(
                f,
                "swap flip slot {flip_slot} precedes the installed flip frontier {frontier}"
            ),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<IdaError> for ServerError {
    fn from(value: IdaError) -> Self {
        ServerError::Ida(value)
    }
}

/// Where [`BroadcastServer::with_dispersals`] gets one file's blocks.
#[derive(Debug, Clone)]
pub enum FileSource {
    /// The file's bytes, to disperse.
    Content(Bytes),
    /// Blocks already dispersed, carried over as they are.
    Dispersed(DispersedFile),
}

/// A broadcast server: holds the dispersed contents of every file and walks
/// the broadcast program, emitting one block per slot.
#[derive(Debug, Clone)]
pub struct BroadcastServer {
    program: BroadcastProgram,
    dispersed: BTreeMap<FileId, DispersedFile>,
}

impl BroadcastServer {
    /// Builds a server: disperses each file's content according to its
    /// declared `(mᵢ, nᵢ)` parameters and binds the program to it.
    ///
    /// `contents` maps file ids to raw bytes; every file in the set must have
    /// content of exactly `size_blocks × block_bytes` bytes.
    pub fn new(
        files: &FileSet,
        program: BroadcastProgram,
        contents: &BTreeMap<FileId, Vec<u8>>,
    ) -> Result<Self, ServerError> {
        if let Some(id) = contents.keys().find(|id| files.get(**id).is_none()) {
            return Err(ServerError::UnknownFile(*id));
        }
        Self::with_dispersals(files, program, &BTreeMap::new(), |f| {
            let bytes = contents.get(&f.id)?;
            Some(FileSource::Content(Bytes::copy_from_slice(bytes)))
        })
    }

    /// [`BroadcastServer::new`] over shared sources, reusing already-built
    /// [`Dispersal`] configurations: `source` says, per file of the set,
    /// where its blocks come from.
    ///
    /// A [`FileSource::Content`] is dispersed.  Its full systematic blocks
    /// are views of those bytes ([`Dispersal::disperse_bytes`]), so a caller
    /// that keeps the content (a station's mode) holds them once, not once
    /// more per server.  A station re-dispersing a mode's contents already
    /// owns exactly the configurations it needs: files whose entry in
    /// `dispersals` matches their declared `(mᵢ, nᵢ)` reuse it, which saves
    /// only the generator build (a `Dispersal` keeps no plans or inverses,
    /// so the blocks are the same bytes either way), and files without a
    /// usable entry fall back to a fresh build.
    ///
    /// A [`FileSource::Dispersed`] file is not dispersed at all: it serves
    /// blocks a server already on the air dispersed from the same bytes
    /// with the same configuration, and carrying them bumps one reference
    /// count (a [`DispersedFile`] shares its blocks).  They pass the checks
    /// bytes would — the size the file declares, its `(mᵢ, nᵢ)` and all
    /// `nᵢ` blocks — in O(1): one dispersal stamps every block of a file
    /// with the same header but for the index, so the block count and
    /// block 0's header vouch for all of them.
    ///
    /// A file `source` has nothing for fails with
    /// [`ServerError::MissingContent`].
    pub fn with_dispersals(
        files: &FileSet,
        program: BroadcastProgram,
        dispersals: &BTreeMap<FileId, Arc<Dispersal>>,
        mut source: impl FnMut(&BroadcastFile) -> Option<FileSource>,
    ) -> Result<Self, ServerError> {
        let mut dispersed = BTreeMap::new();
        for f in files.files() {
            let (m, n) = (f.size_blocks as usize, f.dispersed_blocks as usize);
            let df = match source(f).ok_or(ServerError::MissingContent(f.id))? {
                FileSource::Content(data) => {
                    disperse(f.id, (m, n), f.total_bytes(), &data, dispersals)?
                }
                FileSource::Dispersed(df) => {
                    if df.original_len() != f.total_bytes() {
                        return Err(ServerError::ContentSizeMismatch {
                            file: f.id,
                            expected: f.total_bytes(),
                            actual: df.original_len(),
                        });
                    }
                    let declared = BlockHeader {
                        file: f.id,
                        index: 0,
                        m: f.size_blocks,
                        n: f.dispersed_blocks,
                        original_len: f.total_bytes() as u64,
                    };
                    if df.blocks().len() != n || df.block(0).map(|b| *b.header()) != Some(declared)
                    {
                        return Err(ServerError::Ida(IdaError::InconsistentBlocks));
                    }
                    df
                }
            };
            dispersed.insert(f.id, df);
        }
        Ok(BroadcastServer { program, dispersed })
    }

    /// This server with new bytes for some of its files — what a content
    /// refresh puts on a channel whose program stays: the same program and
    /// files, each file in `contents` dispersed anew as
    /// [`BroadcastServer::with_dispersals`] disperses content, every other
    /// one served by the very blocks it serves here.  Costs one copy of the
    /// file table (a reference count per kept file) plus the new files'
    /// dispersal.
    ///
    /// Fails with [`ServerError::UnknownFile`] for a file this server does
    /// not carry and [`ServerError::ContentSizeMismatch`] for bytes of
    /// another length than the file's.
    pub fn with_new_contents(
        &self,
        contents: &BTreeMap<FileId, Bytes>,
        dispersals: &BTreeMap<FileId, Arc<Dispersal>>,
    ) -> Result<Self, ServerError> {
        let mut dispersed = self.dispersed.clone();
        for (&id, data) in contents {
            let serving = self
                .dispersed
                .get(&id)
                .ok_or(ServerError::UnknownFile(id))?;
            let header = serving
                .block(0)
                .expect("a dispersal yields at least one block")
                .header();
            let shape = (header.m as usize, header.n as usize);
            let refreshed = disperse(id, shape, serving.original_len(), data, dispersals)?;
            dispersed.insert(id, refreshed);
        }
        Ok(BroadcastServer {
            program: self.program.clone(),
            dispersed,
        })
    }

    /// Deterministic pseudo-random content for one file — convenient for
    /// simulations and for the facade's default payloads.
    pub fn synthetic_content(file: &crate::BroadcastFile) -> Vec<u8> {
        (0..file.total_bytes())
            .map(|i| {
                ((i as u32)
                    .wrapping_mul(2_654_435_761)
                    .wrapping_add(file.id.0)
                    >> 24) as u8
            })
            .collect()
    }

    /// [`BroadcastServer::synthetic_content`] for every file in the set.
    pub(crate) fn synthetic_contents(files: &FileSet) -> BTreeMap<FileId, Vec<u8>> {
        files
            .files()
            .iter()
            .map(|f| (f.id, Self::synthetic_content(f)))
            .collect()
    }

    /// Builds a server with synthetic (deterministic pseudo-random) contents
    /// for every file — convenient for simulations that only care about
    /// timing, not payloads.
    pub fn with_synthetic_contents(
        files: &FileSet,
        program: BroadcastProgram,
    ) -> Result<Self, ServerError> {
        Self::new(files, program, &Self::synthetic_contents(files))
    }

    /// The broadcast program driving this server.
    pub fn program(&self) -> &BroadcastProgram {
        &self.program
    }

    /// The dispersed representation of one file (e.g. to hand a client its
    /// expected reconstruction).
    pub fn dispersed(&self, file: FileId) -> Option<&DispersedFile> {
        self.dispersed.get(&file)
    }

    /// The ids of the files this server carries, in ascending order.
    pub fn file_ids(&self) -> impl Iterator<Item = FileId> + '_ {
        self.dispersed.keys().copied()
    }

    /// The dispersed representation of every file this server carries, in
    /// ascending file order.
    pub fn dispersed_files(&self) -> impl Iterator<Item = &DispersedFile> + '_ {
        self.dispersed.values()
    }

    /// What the server transmits in slot `slot`: `None` for an idle slot.
    pub fn transmit_ref(&self, slot: usize) -> Option<TransmissionRef<'_>> {
        match self.program.entry(slot) {
            ProgramEntry::Idle => None,
            ProgramEntry::Block { file, block } => {
                let df = self
                    .dispersed
                    .get(&file)
                    .expect("program only references dispersed files");
                let block = df
                    .block(block as usize)
                    .expect("program block indices stay within the dispersal width");
                Some(TransmissionRef { slot, block })
            }
        }
    }
}

/// Disperses `data` as file `id` of `len` bytes at `(m, n)`, through the
/// configuration in `dispersals` when its `(m, n)` match and a fresh one
/// otherwise.
fn disperse(
    id: FileId,
    (m, n): (usize, usize),
    len: usize,
    data: &Bytes,
    dispersals: &BTreeMap<FileId, Arc<Dispersal>>,
) -> Result<DispersedFile, ServerError> {
    if data.len() != len {
        return Err(ServerError::ContentSizeMismatch {
            file: id,
            expected: len,
            actual: data.len(),
        });
    }
    let reused = dispersals
        .get(&id)
        .filter(|d| d.threshold() == m && d.total_blocks() == n)
        .cloned();
    let dispersal = match reused {
        Some(d) => d,
        None => Arc::new(Dispersal::new(m, n)?),
    };
    Ok(dispersal.disperse_bytes(id, data)?)
}

impl AsRef<BroadcastServer> for BroadcastServer {
    fn as_ref(&self) -> &BroadcastServer {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BroadcastFile, FlatOrder};

    fn paper_files() -> FileSet {
        FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 5, 16).with_dispersal(10),
            BroadcastFile::new(FileId(1), "B", 3, 16).with_dispersal(6),
        ])
        .unwrap()
    }

    fn contents(files: &FileSet) -> BTreeMap<FileId, Vec<u8>> {
        files
            .files()
            .iter()
            .map(|f| {
                (
                    f.id,
                    (0..f.total_bytes())
                        .map(|i| (i as u8) ^ (f.id.0 as u8))
                        .collect(),
                )
            })
            .collect()
    }

    /// Every file's bytes as a [`FileSource::Content`].
    fn content_of(
        contents: &BTreeMap<FileId, Vec<u8>>,
    ) -> impl Fn(&BroadcastFile) -> Option<FileSource> + '_ {
        |f| {
            Some(FileSource::Content(Bytes::from(
                contents.get(&f.id)?.clone(),
            )))
        }
    }

    #[test]
    fn server_emits_blocks_matching_the_program() {
        let files = paper_files();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let server = BroadcastServer::new(&files, program.clone(), &contents(&files)).unwrap();
        for slot in 0..program.data_cycle() * 2 {
            let tx = server
                .transmit_ref(slot)
                .expect("flat programs have no idle slots");
            match program.entry(slot) {
                ProgramEntry::Block { file, block } => {
                    assert_eq!(tx.block.file(), file);
                    assert_eq!(tx.block.index(), block);
                    assert_eq!(tx.slot, slot);
                }
                ProgramEntry::Idle => panic!("unexpected idle entry"),
            }
        }
    }

    #[test]
    fn synthetic_contents_round_trip_through_ida() {
        let files = paper_files();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let server = BroadcastServer::with_synthetic_contents(&files, program).unwrap();
        // Reconstruct file A from 5 of its dispersed blocks.
        let df = server.dispersed(FileId(0)).unwrap();
        let dispersal = Dispersal::new(5, 10).unwrap();
        let recovered = dispersal.reconstruct(&df.blocks()[3..8]).unwrap();
        assert_eq!(recovered.len(), 5 * 16);
    }

    #[test]
    fn missing_and_mismatched_contents_are_rejected() {
        let files = paper_files();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();

        let mut partial = contents(&files);
        partial.remove(&FileId(1));
        assert_eq!(
            BroadcastServer::new(&files, program.clone(), &partial).unwrap_err(),
            ServerError::MissingContent(FileId(1))
        );

        let mut wrong_size = contents(&files);
        wrong_size.insert(FileId(0), vec![0u8; 3]);
        assert!(matches!(
            BroadcastServer::new(&files, program.clone(), &wrong_size).unwrap_err(),
            ServerError::ContentSizeMismatch {
                file: FileId(0),
                ..
            }
        ));

        let mut unknown = contents(&files);
        unknown.insert(FileId(77), vec![0u8; 3]);
        assert_eq!(
            BroadcastServer::new(&files, program, &unknown).unwrap_err(),
            ServerError::UnknownFile(FileId(77))
        );
    }

    #[test]
    fn with_dispersals_reuses_matching_configurations() {
        let files = paper_files();
        let program = BroadcastProgram::aida_flat(&files, FlatOrder::Spread).unwrap();
        let contents = contents(&files);

        // A matching shared configuration for file A, a mismatched one for
        // file B (wrong width: must NOT be used).
        let mut lookup = BTreeMap::new();
        lookup.insert(FileId(0), Arc::new(Dispersal::new(5, 10).unwrap()));
        lookup.insert(FileId(1), Arc::new(Dispersal::new(3, 4).unwrap()));

        let reusing = BroadcastServer::with_dispersals(
            &files,
            program.clone(),
            &lookup,
            content_of(&contents),
        )
        .unwrap();
        let fresh = BroadcastServer::new(&files, program, &contents).unwrap();

        // Same bytes on the wire either way.
        for file in [FileId(0), FileId(1)] {
            let a = reusing.dispersed(file).unwrap();
            let b = fresh.dispersed(file).unwrap();
            for (x, y) in a.blocks().iter().zip(b.blocks()) {
                assert_eq!(x, y, "file {file}");
            }
        }
    }

    #[test]
    fn with_dispersals_carries_dispersed_files_over_and_checks_them() {
        let files = paper_files();
        let contents = contents(&files);
        let program = |files: &FileSet| BroadcastProgram::aida_flat(files, FlatOrder::Spread);
        let serving = BroadcastServer::new(&files, program(&files).unwrap(), &contents).unwrap();
        // File A rides over as `a` (or has no source at all); file B is
        // dispersed from its bytes.
        let load = |files: &FileSet, a: Option<&DispersedFile>| {
            let none = BTreeMap::new();
            BroadcastServer::with_dispersals(files, program(files).unwrap(), &none, |f| {
                match f.id {
                    FileId(0) => a.cloned().map(FileSource::Dispersed),
                    _ => content_of(&contents)(f),
                }
            })
        };

        let a = serving.dispersed(FileId(0)).unwrap();
        let next = load(&files, Some(a)).unwrap();
        let carried = next.dispersed(FileId(0)).unwrap();
        assert_eq!(a.blocks().as_ptr(), carried.blocks().as_ptr());

        // Neither bytes nor blocks for a file is still an error.
        assert_eq!(
            load(&files, None).unwrap_err(),
            ServerError::MissingContent(FileId(0))
        );
        // B's blocks handed over as A's: wrong size.
        let b = serving.dispersed(FileId(1)).unwrap();
        assert!(matches!(
            load(&files, Some(b)).unwrap_err(),
            ServerError::ContentSizeMismatch {
                file: FileId(0),
                ..
            }
        ));
        // A's (5, 10) blocks for a file declaring the same bytes as (5, 9),
        // and blocks of the right shape dispersed for another file: wrong
        // headers.
        let narrower = FileSet::new(vec![
            BroadcastFile::new(FileId(0), "A", 5, 16).with_dispersal(9),
            BroadcastFile::new(FileId(1), "B", 3, 16).with_dispersal(6),
        ])
        .unwrap();
        assert_eq!(
            load(&narrower, Some(a)).unwrap_err(),
            ServerError::Ida(IdaError::InconsistentBlocks)
        );
        let elsewhere = Dispersal::new(5, 10)
            .unwrap()
            .disperse(FileId(9), &contents[&FileId(0)])
            .unwrap();
        assert_eq!(
            load(&files, Some(&elsewhere)).unwrap_err(),
            ServerError::Ida(IdaError::InconsistentBlocks)
        );
    }

    #[test]
    fn idle_slots_transmit_nothing() {
        use pinwheel::Schedule;
        let files = FileSet::new(vec![BroadcastFile::new(FileId(0), "A", 1, 8)]).unwrap();
        let schedule = Schedule::new(vec![Some(1), None]);
        let program =
            BroadcastProgram::from_pinwheel_schedule(&schedule, &files, |_| Some(FileId(0)))
                .unwrap();
        let server = BroadcastServer::with_synthetic_contents(&files, program).unwrap();
        assert!(server.transmit_ref(0).is_some());
        assert!(server.transmit_ref(1).is_none());
    }
}
