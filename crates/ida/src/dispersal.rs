//! The dispersal and reconstruction operations of IDA (paper Figure 3).

use crate::{BlockHeader, DispersedBlock, FileId, IdaError};
use bauth::{CommitPlan, Root};
use bytes::Bytes;
use gf256::{Gf256, Matrix, MulTable};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// A dispersal configuration: files are split into `m` source blocks and
/// encoded into `n ≥ m` dispersed blocks, any `m` of which reconstruct the
/// original.
///
/// A configuration holds `m`, `n`, its systematic generator matrix (built
/// once, in closed form) and, when authenticated, its Merkle commit plan —
/// nothing learned from use, so a clone or a fresh build behaves exactly
/// alike.  Both directions run on `gf256`'s vectorizable slice kernels and
/// build their per-coefficient [`MulTable`]s per call: a
/// [`Dispersal::disperse`] the `(n − m)·m` of its coded rows, a
/// [`Dispersal::reconstruct`] the `k·m` that solve its `k` missing source
/// blocks.
///
/// The paper notes that the inverse transformations "could be precomputed
/// for some or even all possible subsets of m rows"; none is.  The
/// generator's top `m` rows are the identity, so a reconstruction copies
/// the source blocks it received and solves only the `k` it is missing,
/// from the `k` coded blocks received in their place: a `k×k` inversion,
/// not an `m×m` one, and none at all on a fault-free retrieval.
#[derive(Debug, Clone)]
pub struct Dispersal {
    m: usize,
    n: usize,
    matrix: Matrix,
    /// The shared Merkle commit plan of an *authenticated* configuration:
    /// [`Dispersal::disperse`] commits every file it disperses (root on the
    /// [`DispersedFile`], O(log n) inclusion proof on every block).  `None`
    /// disperses unauthenticated.  Built once per configuration and shared
    /// by every clone.
    commit: Option<Arc<CommitPlan>>,
}

/// The `n × block_len` leaf bytes from which an authenticated disperse
/// hashes on a helper thread beside its coding.  A scoped spawn and join
/// costs 40–50 µs (measured on a 2-vCPU x86-64 box), while the helper
/// takes over about half of the leaf hashing, ≈ 0.4 ms of a 1 MiB file's
/// 0.8 ms; at 512 KiB the saving is still several times the spawn, and
/// smaller files (a 256 KiB file at (16, 18) holds 288 KiB of leaves) stay
/// on one thread.
const PARALLEL_LEAF_BYTES: usize = 512 * 1024;

/// The values of `(index, value)` pairs, sorted by index.
fn in_index_order<T>(pairs: impl IntoIterator<Item = (u32, T)>) -> Vec<T> {
    let mut pairs: Vec<(u32, T)> = pairs.into_iter().collect();
    pairs.sort_unstable_by_key(|(index, _)| *index);
    pairs.into_iter().map(|(_, value)| value).collect()
}

/// The result of dispersing one file: the dispersed blocks plus bookkeeping.
///
/// The blocks are shared: a clone bumps one reference count, so every
/// server and mode that carries an unchanged file holds the very blocks
/// its dispersal produced.  Every block carries the header
/// `{ file, index, m, n, original_len }` of its position in the one
/// dispersal that made it.
#[derive(Debug, Clone)]
pub struct DispersedFile {
    file: FileId,
    original_len: usize,
    blocks: Arc<[DispersedBlock]>,
    /// The file's Merkle commitment root, present when dispersed through an
    /// authenticated configuration ([`Dispersal::authenticated`]).
    root: Option<Root>,
}

impl DispersedFile {
    /// The file these blocks belong to.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// The Merkle commitment root over the dispersed blocks, if this file
    /// was dispersed authenticated.  Receivers that learn the root out of
    /// band verify each block's inclusion proof against it.
    pub fn commitment_root(&self) -> Option<Root> {
        self.root
    }

    /// Length of the original file in bytes.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// All `n` dispersed blocks, in index order.
    pub fn blocks(&self) -> &[DispersedBlock] {
        &self.blocks
    }

    /// The block with the given dispersal index.
    pub fn block(&self, index: usize) -> Option<&DispersedBlock> {
        self.blocks.get(index)
    }
}

impl Dispersal {
    /// Creates a dispersal configuration with a systematic generator matrix:
    /// the first `m` dispersed blocks are the source blocks verbatim — views
    /// of the file, not copies, where they lie wholly inside it (cheapest
    /// reconstruction when no faults occur).
    ///
    /// `m` is the reconstruction threshold, `n` the total number of dispersed
    /// blocks; `1 ≤ m ≤ n ≤ 255` must hold.
    pub fn new(m: usize, n: usize) -> Result<Self, IdaError> {
        if m == 0 {
            return Err(IdaError::ThresholdTooSmall);
        }
        if n < m || n > 255 {
            return Err(IdaError::InvalidBlockCount { m, n });
        }
        Ok(Dispersal {
            m,
            n,
            matrix: Matrix::systematic(n, m)?,
            commit: None,
        })
    }

    /// [`Dispersal::new`] with Merkle commitments: every dispersed file
    /// carries a commitment root and every block an inclusion proof, so
    /// receivers can verify blocks on receive and treat corruption as
    /// erasures.  The commit plan (tree shape, padding hashes) is built once
    /// here and shared by every clone.
    pub fn authenticated(m: usize, n: usize) -> Result<Self, IdaError> {
        let mut d = Self::new(m, n)?;
        d.commit = Some(Arc::new(
            CommitPlan::new(n).expect("n ≤ 255 always fits a commit plan"),
        ));
        Ok(d)
    }

    /// `true` when this configuration commits what it disperses (built via
    /// [`Dispersal::authenticated`]).
    pub fn is_authenticated(&self) -> bool {
        self.commit.is_some()
    }

    /// The shared Merkle commit plan of an authenticated configuration.
    pub fn commit_plan(&self) -> Option<&Arc<CommitPlan>> {
        self.commit.as_ref()
    }

    /// Verifies one received block against a known commitment `root` under
    /// this configuration's shared commit plan: recomputes the block's leaf
    /// hash and folds its O(log n) inclusion proof.  Returns `false` for
    /// tampered payloads or headers, wrong-depth proofs, *and* blocks that
    /// carry no proof at all; unauthenticated configurations verify nothing
    /// and return `true`.
    pub fn verify_block(&self, root: &Root, block: &DispersedBlock) -> bool {
        if self.commit.is_none() {
            return true;
        }
        let Some(proof) = block.proof() else {
            return false;
        };
        let h = block.header();
        bauth::verify_block(
            root,
            h.file.0,
            h.index,
            h.m,
            self.n as u32,
            h.original_len,
            block.payload(),
            proof,
        )
    }

    /// The reconstruction threshold `m`.
    pub fn threshold(&self) -> usize {
        self.m
    }

    /// The total number of dispersed blocks `n`.
    pub fn total_blocks(&self) -> usize {
        self.n
    }

    /// The number of *redundant* blocks, `n − m`.
    pub fn redundancy(&self) -> usize {
        self.n - self.m
    }

    /// Always 0: a configuration memoises no reconstruction inverses (each
    /// [`Dispersal::reconstruct`] solves its own `k×k` system).  Kept for
    /// callers that report the count.
    pub fn cached_inverses(&self) -> usize {
        0
    }

    /// The per-block payload size for a file of `len` bytes: the file is
    /// padded to a multiple of `m` and split column-wise.
    pub(crate) fn block_payload_len(&self, len: usize) -> usize {
        len.div_ceil(self.m)
    }

    /// Disperses `data` into `n` self-identifying blocks (paper Figure 3,
    /// left side).
    ///
    /// Copies `data` once into a shared buffer and disperses that
    /// ([`Dispersal::disperse_bytes`]).
    pub fn disperse(&self, file: FileId, data: &[u8]) -> Result<DispersedFile, IdaError> {
        self.disperse_bytes(file, &Bytes::copy_from_slice(data))
    }

    /// Disperses shared `data` into `n` self-identifying blocks (paper
    /// Figure 3, left side).
    ///
    /// Runs directly on the input bytes and stores each byte of the file
    /// once: a systematic block that lies wholly inside the file is a
    /// *view* of `data` (it copies nothing and keeps `data` alive), the
    /// zero-padded last block is a copy, and coded rows are written by the
    /// per-coefficient slice kernels (tables built per call) straight into
    /// the buffer their block keeps — no element-at-a-time field arithmetic
    /// and no intermediate `Gf256` buffers.
    ///
    /// An authenticated configuration hashes the blocks' Merkle leaves two
    /// at a time ([`bauth::leaf_hashes`]).  When the `n` blocks hold at
    /// least 512 KiB (`PARALLEL_LEAF_BYTES`), the call also spawns one
    /// scoped helper thread: it hashes the view blocks' leaves while this
    /// thread codes the rest, then the two share the leaves still left.
    /// Smaller files stay on the calling thread.  Either way the blocks,
    /// proofs and root are the same bytes.
    pub fn disperse_bytes(&self, file: FileId, data: &Bytes) -> Result<DispersedFile, IdaError> {
        self.disperse_with(file, data, PARALLEL_LEAF_BYTES)
    }

    /// [`Dispersal::disperse_bytes`], hashing beside the coding from
    /// `parallel_from` leaf bytes on.
    fn disperse_with(
        &self,
        file: FileId,
        data: &Bytes,
        parallel_from: usize,
    ) -> Result<DispersedFile, IdaError> {
        if data.is_empty() {
            return Err(IdaError::EmptyFile);
        }
        let block_len = self.block_payload_len(data.len());
        // Authenticated configurations commit what they encode: one leaf per
        // block, one Merkle tree per file, the root on the file and an
        // O(log n) proof on every block.
        let (payloads, commitment) = match &self.commit {
            Some(plan) if self.n * block_len >= parallel_from => {
                let (payloads, leaves) = self.encode_and_hash_beside(file, data, block_len);
                (payloads, Some(plan.commit(&leaves)))
            }
            commit => {
                let payloads: Vec<Bytes> = (0..self.n)
                    .map(|index| self.encode_row(index, data, block_len))
                    .collect();
                let commitment = commit.as_ref().map(|plan| {
                    let blocks = payloads.iter().enumerate();
                    plan.commit(&self.leaf_hashes(
                        file,
                        data.len(),
                        blocks.map(|(index, payload)| (index as u32, &payload[..])),
                    ))
                });
                (payloads, commitment)
            }
        };
        let blocks = payloads
            .into_iter()
            .enumerate()
            .map(|(index, payload)| {
                let header = BlockHeader {
                    file,
                    index: index as u32,
                    m: self.m as u32,
                    n: self.n as u32,
                    original_len: data.len() as u64,
                };
                let block = DispersedBlock::new(header, payload);
                match &commitment {
                    Some(commitment) => block.with_proof(Arc::new(
                        commitment
                            .proof(index)
                            .expect("every dispersed index is inside the committed width"),
                    )),
                    None => block,
                }
            })
            .collect();
        Ok(DispersedFile {
            file,
            original_len: data.len(),
            blocks,
            root: commitment.map(|commitment| commitment.root()),
        })
    }

    /// Block `index`'s payload when it is a view of the file: a source block
    /// (the generator's top rows are the identity) lying wholly inside
    /// `data`.
    fn view_row(&self, index: usize, data: &Bytes, block_len: usize) -> Option<Bytes> {
        (index < self.m && (index + 1) * block_len <= data.len())
            .then(|| data.slice(index * block_len..(index + 1) * block_len))
    }

    /// Block `index`'s payload: a view of the file where it can be, else a
    /// fresh buffer that generator row `index` is coded into (the padded
    /// last source block's row is a unit vector, so it is a copy).  Source
    /// blocks that run past the file's end count as zero-padded.
    fn encode_row(&self, index: usize, data: &Bytes, block_len: usize) -> Bytes {
        self.view_row(index, data, block_len).unwrap_or_else(|| {
            let mut payload = vec![0u8; block_len];
            for (c, &coeff) in self.matrix.row(index).iter().enumerate() {
                let start = (c * block_len).min(data.len());
                let end = (start + block_len).min(data.len());
                MulTable::new(coeff).mul_acc(&data[start..end], &mut payload);
            }
            Bytes::from(payload)
        })
    }

    /// The Merkle leaves of `file`'s `(index, payload)` blocks, in order.
    fn leaf_hashes<'a>(
        &self,
        file: FileId,
        original_len: usize,
        blocks: impl IntoIterator<Item = (u32, &'a [u8])>,
    ) -> Vec<Root> {
        bauth::leaf_hashes(
            file.0,
            self.m as u32,
            self.n as u32,
            original_len as u64,
            blocks,
        )
    }

    /// The `n` block payloads and their leaf hashes, in index order, with
    /// the hashing beside the coding: a scoped helper thread hashes the
    /// view blocks — they exist before any coding — while this thread
    /// codes the other rows; then both take pairs of the leaves left, the
    /// helper only if the coded blocks are out by the time it runs dry.
    fn encode_and_hash_beside(
        &self,
        file: FileId,
        data: &Bytes,
        block_len: usize,
    ) -> (Vec<Bytes>, Vec<Root>) {
        let mut views = Vec::with_capacity(self.n);
        let mut coded_rows = Vec::with_capacity(self.n);
        for index in 0..self.n {
            match self.view_row(index, data, block_len) {
                Some(view) => views.push((index as u32, view)),
                None => coded_rows.push(index),
            }
        }
        // Claim cursors, in pairs of blocks.  `Relaxed` suffices: a cursor
        // publishes no data — the views exist before the spawn, and the
        // coded blocks reach the helper through `coded`'s `OnceLock`.
        let (view_pairs, coded_pairs) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let coded: OnceLock<Vec<(u32, Bytes)>> = OnceLock::new();
        // Hashes pairs of `blocks` claimed from `next` until none is left.
        let drain = |blocks: &[(u32, Bytes)], next: &AtomicUsize, out: &mut Vec<(u32, Root)>| loop {
            let start = 2 * next.fetch_add(1, Ordering::Relaxed);
            if start >= blocks.len() {
                break;
            }
            let pair = &blocks[start..(start + 2).min(blocks.len())];
            let leaves = self.leaf_hashes(file, data.len(), pair.iter().map(|(i, p)| (*i, &p[..])));
            out.extend(pair.iter().map(|(index, _)| *index).zip(leaves));
        };
        let hashed = std::thread::scope(|scope| {
            let helper = scope.spawn(|| {
                let mut out = Vec::with_capacity(self.n);
                drain(&views, &view_pairs, &mut out);
                if let Some(coded) = coded.get() {
                    drain(coded, &coded_pairs, &mut out);
                }
                out
            });
            let coded = coded.get_or_init(|| {
                coded_rows
                    .iter()
                    .map(|&index| (index as u32, self.encode_row(index, data, block_len)))
                    .collect()
            });
            let mut out = Vec::with_capacity(self.n);
            drain(&views, &view_pairs, &mut out);
            drain(coded, &coded_pairs, &mut out);
            out.extend(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
            out
        });
        let coded = coded
            .into_inner()
            .expect("the caller codes before it hashes");
        (
            in_index_order(views.into_iter().chain(coded)),
            in_index_order(hashed),
        )
    }

    /// Reconstructs the original file from any `m` (or more) distinct
    /// dispersed blocks (paper Figure 3, right side).
    ///
    /// Extra blocks beyond the first `m` distinct indices are ignored.
    ///
    /// Received source blocks (indices below `m`) are copied straight into
    /// the output.  The `k` missing ones are solved from the `k` coded
    /// blocks received in their place: with `R` those blocks' rows and `M`
    /// the missing columns, `A = G[R, M]` is `k×k` and invertible whenever
    /// the chosen rows are, and row `i` of `A⁻¹`, folded through `G` over
    /// the received source blocks, is the coded row that yields missing
    /// block `i` from the `m` chosen blocks — the row the full `m×m`
    /// inverse would give.  A fault-free systematic retrieval is pure
    /// `memcpy`, and only bytes inside `original_len` are computed (the
    /// padding of the final partial block is never decoded).
    pub fn reconstruct(&self, blocks: &[DispersedBlock]) -> Result<Vec<u8>, IdaError> {
        // Select the first m blocks with distinct indices and a consistent header.
        let mut chosen: Vec<&DispersedBlock> = Vec::with_capacity(self.m);
        let mut seen = HashSet::new();
        let mut reference: Option<&BlockHeader> = None;
        for b in blocks {
            let h = b.header();
            if let Some(r) = reference {
                if h.file != r.file
                    || h.m != r.m
                    || h.n != r.n
                    || h.original_len != r.original_len
                    || b.len() != chosen[0].len()
                {
                    return Err(IdaError::InconsistentBlocks);
                }
            } else {
                if h.m as usize != self.m || h.n as usize != self.n {
                    return Err(IdaError::InconsistentBlocks);
                }
                reference = Some(h);
            }
            if h.index as usize >= self.n {
                return Err(IdaError::CorruptHeader {
                    index: h.index as usize,
                    n: self.n,
                });
            }
            if seen.insert(h.index) {
                chosen.push(b);
                if chosen.len() == self.m {
                    break;
                }
            }
        }
        if chosen.len() < self.m {
            return Err(IdaError::NotEnoughBlocks {
                required: self.m,
                supplied: chosen.len(),
            });
        }
        let reference = reference.expect("at least one block present");
        let block_len = chosen[0].len();
        let len = (reference.original_len as usize).min(self.m * block_len);
        // Source block `c`'s bytes in the output: empty past the file's end.
        let segment = |c: usize| {
            let start = (c * block_len).min(len);
            start..(start + block_len).min(len)
        };

        let mut out = vec![0u8; len];
        let (sources, coded): (Vec<&DispersedBlock>, Vec<&DispersedBlock>) = chosen
            .into_iter()
            .partition(|b| (b.index() as usize) < self.m);
        let mut received = vec![false; self.m];
        for b in &sources {
            let c = b.index() as usize;
            received[c] = true;
            let range = segment(c);
            let n = range.len();
            out[range].copy_from_slice(&b.payload()[..n]);
        }
        let missing: Vec<usize> = (0..self.m).filter(|&c| !received[c]).collect();
        let row = |b: &DispersedBlock| self.matrix.row(b.index() as usize);
        let mut system = Matrix::zero(coded.len(), missing.len());
        for (r, b) in coded.iter().enumerate() {
            for (j, &c) in missing.iter().enumerate() {
                system[(r, j)] = row(b)[c];
            }
        }
        let solve = system.inverted()?;
        for (i, &c) in missing.iter().enumerate() {
            let range = segment(c);
            if range.is_empty() {
                break;
            }
            let weights = solve.row(i);
            let target = &mut out[range];
            for (&weight, b) in weights.iter().zip(&coded) {
                MulTable::new(weight).mul_acc(b.payload(), target);
            }
            for b in &sources {
                let source = b.index() as usize;
                let weight: Gf256 = weights
                    .iter()
                    .zip(&coded)
                    .map(|(&w, p)| w * row(p)[source])
                    .sum();
                MulTable::new(weight).mul_acc(b.payload(), target);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn parameter_validation() {
        assert_eq!(
            Dispersal::new(0, 5).unwrap_err(),
            IdaError::ThresholdTooSmall
        );
        assert!(matches!(
            Dispersal::new(6, 5),
            Err(IdaError::InvalidBlockCount { .. })
        ));
        assert!(matches!(
            Dispersal::new(5, 300),
            Err(IdaError::InvalidBlockCount { .. })
        ));
        assert!(Dispersal::new(1, 1).is_ok());
        assert!(Dispersal::new(5, 255).is_ok());
    }

    #[test]
    fn empty_file_is_rejected() {
        let d = Dispersal::new(3, 6).unwrap();
        assert_eq!(d.disperse(FileId(1), &[]).unwrap_err(), IdaError::EmptyFile);
    }

    #[test]
    fn round_trip_with_all_blocks() {
        let d = Dispersal::new(5, 10).unwrap();
        let data = sample(997); // not a multiple of m → exercises padding
        let df = d.disperse(FileId(1), &data).unwrap();
        assert_eq!(df.blocks().len(), 10);
        let out = d.reconstruct(df.blocks()).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn round_trip_from_every_minimal_subset() {
        let d = Dispersal::new(3, 6).unwrap();
        let data = sample(64);
        let df = d.disperse(FileId(9), &data).unwrap();
        let blocks = df.blocks();
        for a in 0..6 {
            for b in (a + 1)..6 {
                for c in (b + 1)..6 {
                    let subset = vec![blocks[a].clone(), blocks[b].clone(), blocks[c].clone()];
                    let out = d.reconstruct(&subset).unwrap();
                    assert_eq!(out, data, "subset {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn systematic_prefix_blocks_are_verbatim_source() {
        let d = Dispersal::new(4, 8).unwrap();
        let data = sample(400); // exactly 4 * 100
        let df = d.disperse(FileId(2), &data).unwrap();
        for i in 0..4 {
            assert_eq!(&df.blocks()[i].payload()[..], &data[i * 100..(i + 1) * 100]);
        }
    }

    #[test]
    fn reconstruction_order_does_not_matter() {
        let d = Dispersal::new(4, 9).unwrap();
        let data = sample(123);
        let df = d.disperse(FileId(5), &data).unwrap();
        let mut subset = vec![
            df.blocks()[8].clone(),
            df.blocks()[2].clone(),
            df.blocks()[6].clone(),
            df.blocks()[0].clone(),
        ];
        assert_eq!(d.reconstruct(&subset).unwrap(), data);
        subset.reverse();
        assert_eq!(d.reconstruct(&subset).unwrap(), data);
    }

    #[test]
    fn duplicate_blocks_do_not_count_towards_threshold() {
        let d = Dispersal::new(3, 6).unwrap();
        let data = sample(50);
        let df = d.disperse(FileId(1), &data).unwrap();
        let dup = vec![
            df.blocks()[1].clone(),
            df.blocks()[1].clone(),
            df.blocks()[1].clone(),
        ];
        assert!(matches!(
            d.reconstruct(&dup),
            Err(IdaError::NotEnoughBlocks {
                required: 3,
                supplied: 1
            })
        ));
    }

    #[test]
    fn too_few_blocks_fails() {
        let d = Dispersal::new(5, 10).unwrap();
        let data = sample(100);
        let df = d.disperse(FileId(1), &data).unwrap();
        let few: Vec<_> = df.blocks()[..4].to_vec();
        assert!(matches!(
            d.reconstruct(&few),
            Err(IdaError::NotEnoughBlocks {
                required: 5,
                supplied: 4
            })
        ));
    }

    #[test]
    fn mixed_files_are_rejected() {
        let d = Dispersal::new(2, 4).unwrap();
        let df1 = d.disperse(FileId(1), &sample(20)).unwrap();
        let df2 = d.disperse(FileId(2), &sample(20)).unwrap();
        let mixed = vec![df1.blocks()[0].clone(), df2.blocks()[1].clone()];
        assert_eq!(
            d.reconstruct(&mixed).unwrap_err(),
            IdaError::InconsistentBlocks
        );
    }

    #[test]
    fn mismatched_configuration_is_rejected() {
        let d24 = Dispersal::new(2, 4).unwrap();
        let d36 = Dispersal::new(3, 6).unwrap();
        let df = d36.disperse(FileId(1), &sample(30)).unwrap();
        assert_eq!(
            d24.reconstruct(df.blocks()).unwrap_err(),
            IdaError::InconsistentBlocks
        );
    }

    #[test]
    fn single_byte_file_and_m_equals_one() {
        let d = Dispersal::new(1, 3).unwrap();
        let data = vec![0xAB];
        let df = d.disperse(FileId(1), &data).unwrap();
        for b in df.blocks() {
            let out = d.reconstruct(std::slice::from_ref(b)).unwrap();
            assert_eq!(out, data);
        }
    }

    #[test]
    fn m_equals_n_degenerates_to_plain_striping() {
        let d = Dispersal::new(4, 4).unwrap();
        let data = sample(64);
        let df = d.disperse(FileId(1), &data).unwrap();
        assert_eq!(d.redundancy(), 0);
        assert_eq!(d.reconstruct(df.blocks()).unwrap(), data);
    }

    #[test]
    fn block_payload_len_matches_paper_model() {
        // A file of m_i blocks of size b_i: dispersing with threshold m keeps
        // each dispersed block the same size as a source block.
        let d = Dispersal::new(5, 10).unwrap();
        assert_eq!(d.block_payload_len(5 * 512), 512);
        assert_eq!(d.block_payload_len(5 * 512 + 1), 513);
    }

    #[test]
    fn authenticated_dispersal_commits_and_verifies() {
        let d = Dispersal::authenticated(5, 10).unwrap();
        assert!(d.is_authenticated());
        let data = sample(997);
        let df = d.disperse(FileId(3), &data).unwrap();
        let root = df.commitment_root().expect("authenticated root");
        for b in df.blocks() {
            assert!(b.proof().is_some());
            assert!(d.verify_block(&root, b));
        }
        // Blocks still reconstruct exactly as unauthenticated ones do.
        let survivors: Vec<_> = df.blocks()[3..8].to_vec();
        assert_eq!(d.reconstruct(&survivors).unwrap(), data);
        // Distinct contents commit to distinct roots.
        let other = d.disperse(FileId(3), &sample(998)).unwrap();
        assert_ne!(other.commitment_root(), Some(root));
    }

    #[test]
    fn tampered_blocks_fail_verification() {
        let d = Dispersal::authenticated(3, 6).unwrap();
        let df = d.disperse(FileId(1), &sample(300)).unwrap();
        let root = df.commitment_root().unwrap();
        let good = &df.blocks()[2];
        // Tampered payload under the original proof.
        let mut payload = good.payload().to_vec();
        payload[0] ^= 0xA5;
        let tampered = DispersedBlock::new(*good.header(), Bytes::from(payload))
            .with_proof(good.proof().unwrap().clone());
        assert!(!d.verify_block(&root, &tampered));
        // A proofless block fails under an authenticated configuration.
        let bare = DispersedBlock::new(*good.header(), good.payload().clone());
        assert!(!d.verify_block(&root, &bare));
        // Another block's proof does not transfer.
        let crossed = bare.with_proof(df.blocks()[3].proof().unwrap().clone());
        assert!(!d.verify_block(&root, &crossed));
    }

    #[test]
    fn unauthenticated_dispersal_stays_proof_free() {
        let d = Dispersal::new(3, 6).unwrap();
        assert!(!d.is_authenticated());
        assert!(d.commit_plan().is_none());
        let df = d.disperse(FileId(1), &sample(60)).unwrap();
        assert_eq!(df.commitment_root(), None);
        assert!(df.blocks().iter().all(|b| b.proof().is_none()));
        // verify_block is vacuously true without a plan.
        assert!(d.verify_block(&[0u8; 32], &df.blocks()[0]));
    }

    #[test]
    fn same_contents_same_configuration_same_root() {
        // Re-dispersal with an (m, n)-compatible configuration reproduces
        // the root bit for bit — what lets an epoch swap republish the same
        // commitment when a file's bytes survive the transition.
        let a = Dispersal::authenticated(4, 8).unwrap();
        let b = Dispersal::authenticated(4, 8).unwrap();
        let data = sample(512);
        let ra = a.disperse(FileId(7), &data).unwrap().commitment_root();
        let rb = b.disperse(FileId(7), &data).unwrap().commitment_root();
        assert_eq!(ra, rb);
        assert!(ra.is_some());
    }

    #[test]
    fn hashing_beside_the_coding_changes_no_byte() {
        // Systematic views, the padded last block and coded rows, over odd
        // and even view counts; one-block files leave the helper nothing.
        for (m, n, len) in [
            (4, 9, 123),
            (5, 8, 5 * 64),
            (7, 10, 1000),
            (1, 3, 1),
            (3, 3, 90),
        ] {
            let d = Dispersal::authenticated(m, n).unwrap();
            let data = Bytes::from(sample(len));
            let serial = d.disperse_with(FileId(4), &data, usize::MAX).unwrap();
            let beside = d.disperse_with(FileId(4), &data, 0).unwrap();
            assert_eq!(
                beside.blocks(),
                serial.blocks(),
                "({m}, {n}) of {len} bytes"
            );
            assert_eq!(beside.commitment_root(), serial.commitment_root());
            assert_eq!(
                d.reconstruct(&beside.blocks()[n - m..]).unwrap(),
                sample(len)
            );
        }
    }

    #[test]
    fn paper_example_file_a_five_to_ten() {
        // Section 2.3: file A of 5 blocks dispersed into 10, any 5 suffice.
        let d = Dispersal::new(5, 10).unwrap();
        let data = sample(5 * 128);
        let df = d.disperse(FileId(0), &data).unwrap();
        // Receive blocks 1..=4 plus block 6 (the paper's A'6 example).
        let subset = vec![
            df.blocks()[0].clone(),
            df.blocks()[1].clone(),
            df.blocks()[2].clone(),
            df.blocks()[3].clone(),
            df.blocks()[5].clone(),
        ];
        assert_eq!(d.reconstruct(&subset).unwrap(), data);
    }
}
