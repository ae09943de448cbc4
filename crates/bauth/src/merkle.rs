//! Per-file Merkle commitments over dispersed blocks.
//!
//! At disperse time every block of a file is hashed into a leaf binding its
//! `(file, index, m, n, original_len)` header *and* its payload; the leaves
//! form a Merkle tree whose root is the file's commitment.  A receiver that
//! knows the root (delivered out of band — program metadata, a subscribe
//! ack) verifies each block against an O(log n) inclusion proof and treats a
//! mismatch as an erasure, which the IDA `n − m` budget already absorbs.
//!
//! Tree shape is fixed by the dispersal width `n` alone, so the
//! [`CommitPlan`] (depth, padding subtree hashes) is built once per
//! `Dispersal` and shared via `Arc`.

use crate::sha256::{sha256, sha256_pair, Sha256};

/// A file's Merkle commitment root.
pub type Root = [u8; 32];

/// Deepest tree this crate will build or verify (`n ≤ 2^16` blocks).
pub const MAX_DEPTH: usize = 16;

/// Domain-separation tags: leaves, interior nodes and padding can never be
/// confused for one another.
const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;
const PAD_TAG: u8 = 0x02;

/// The leaf hash of one dispersed block: a binding of the block's full
/// header and payload, so a proof vouches for *which* block this is, not
/// just its bytes.
pub fn leaf_hash(file: u32, index: u32, m: u32, n: u32, original_len: u64, payload: &[u8]) -> Root {
    let mut h = Sha256::new();
    h.update(&leaf_header(file, index, m, n, original_len))
        .update(payload);
    h.finalize()
}

/// The [`leaf_hash`] of every `(index, payload)` block of one file, in
/// order.  Neighbouring payloads of one length are hashed as a pair, two
/// messages side by side through the hash (a dispersal's blocks all have
/// one length, so a file's leaves pair up); an unpaired block is hashed
/// alone.
pub fn leaf_hashes<'a>(
    file: u32,
    m: u32,
    n: u32,
    original_len: u64,
    blocks: impl IntoIterator<Item = (u32, &'a [u8])>,
) -> Vec<Root> {
    let mut blocks = blocks.into_iter().peekable();
    let mut out = Vec::with_capacity(blocks.size_hint().0);
    while let Some((index, payload)) = blocks.next() {
        match blocks.next_if(|(_, next)| next.len() == payload.len()) {
            Some((second, next)) => out.extend(leaf_pair(
                file,
                m,
                n,
                original_len,
                [index, second],
                [payload, next],
            )),
            None => out.push(leaf_hash(file, index, m, n, original_len, payload)),
        }
    }
    out
}

/// The leaves of two blocks of one file whose payloads have one length,
/// hashed side by side.
fn leaf_pair(
    file: u32,
    m: u32,
    n: u32,
    original_len: u64,
    index: [u32; 2],
    payload: [&[u8]; 2],
) -> [Root; 2] {
    let head = index.map(|i| leaf_header(file, i, m, n, original_len));
    sha256_pair([&head[0], &head[1]], payload)
}

/// A leaf's tagged `(file, index, m, n, original_len)` prefix.
fn leaf_header(file: u32, index: u32, m: u32, n: u32, original_len: u64) -> [u8; 25] {
    let mut header = [0u8; 25];
    header[0] = LEAF_TAG;
    header[1..5].copy_from_slice(&file.to_le_bytes());
    header[5..9].copy_from_slice(&index.to_le_bytes());
    header[9..13].copy_from_slice(&m.to_le_bytes());
    header[13..17].copy_from_slice(&n.to_le_bytes());
    header[17..25].copy_from_slice(&original_len.to_le_bytes());
    header
}

fn node_hash(left: &Root, right: &Root) -> Root {
    let mut h = Sha256::new();
    h.update(&[NODE_TAG]).update(left).update(right);
    h.finalize()
}

/// One block's inclusion proof: the sibling hashes from its leaf up to the
/// root, bottom-first.  `O(log n)` hashes; the leaf index rides in the block
/// header, so the proof itself is just the path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProof {
    path: Vec<Root>,
}

impl BlockProof {
    /// Reassembles a proof from its raw path (e.g. decoded off the wire).
    /// Paths deeper than [`MAX_DEPTH`] are rejected.
    pub fn from_path(path: Vec<Root>) -> Option<Self> {
        if path.len() > MAX_DEPTH {
            return None;
        }
        Some(BlockProof { path })
    }

    /// The sibling path, bottom-first.
    pub fn path(&self) -> &[Root] {
        &self.path
    }

    /// Number of levels in the path.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Folds `leaf` (at position `index`) up the path and compares against
    /// `root`.
    pub fn verify(&self, index: u32, leaf: &Root, root: &Root) -> bool {
        let mut idx = index as usize;
        let mut cur = *leaf;
        for sibling in &self.path {
            cur = if idx & 1 == 1 {
                node_hash(sibling, &cur)
            } else {
                node_hash(&cur, sibling)
            };
            idx >>= 1;
        }
        // A leaf index wider than the path would silently alias another
        // position; reject instead.
        idx == 0 && cur == *root
    }
}

/// The shared per-dispersal commitment plan: tree depth and the padding
/// subtree hashes for a width-`n` leaf layer.  Build once per `(m, n)`
/// dispersal configuration, share via `Arc`, reuse across every file and
/// every re-dispersal with the same width.
#[derive(Debug, Clone)]
pub struct CommitPlan {
    n: usize,
    depth: usize,
    /// `pads[l]` is the hash of an all-padding subtree of height `l`.
    pads: Vec<Root>,
}

impl CommitPlan {
    /// A plan for trees over `n` leaves (`1 ≤ n ≤ 2^MAX_DEPTH`).
    pub fn new(n: usize) -> Option<Self> {
        if n == 0 || n > (1usize << MAX_DEPTH) {
            return None;
        }
        let depth = (n.max(1) as u64).next_power_of_two().trailing_zeros() as usize;
        let mut pads = Vec::with_capacity(depth + 1);
        pads.push(sha256(&[PAD_TAG]));
        for l in 0..depth {
            let below = pads[l];
            pads.push(node_hash(&below, &below));
        }
        Some(CommitPlan { n, depth, pads })
    }

    /// The leaf-layer width the plan commits.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The tree depth (and every proof's path length).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Builds the commitment over exactly `n` leaf hashes.
    ///
    /// # Panics
    /// If `leaves.len() != n` — dispersal always produces all `n` blocks, so
    /// a mismatch is a caller bug, not an input condition.
    pub fn commit(&self, leaves: &[Root]) -> Commitment {
        assert_eq!(
            leaves.len(),
            self.n,
            "commit plan is for {} leaves, got {}",
            self.n,
            leaves.len()
        );
        let width = 1usize << self.depth;
        let mut levels = Vec::with_capacity(self.depth + 1);
        let mut level = Vec::with_capacity(width);
        level.extend_from_slice(leaves);
        level.resize(width, self.pads[0]);
        levels.push(level);
        for l in 0..self.depth {
            let below = &levels[l];
            let mut above = Vec::with_capacity(below.len() / 2);
            for pair in below.chunks_exact(2) {
                above.push(node_hash(&pair[0], &pair[1]));
            }
            levels.push(above);
        }
        Commitment { levels }
    }
}

/// A built per-file commitment: the root plus every interior node, so the
/// per-block proofs are O(log n) *lookups*, not O(n) rebuilds.
#[derive(Debug, Clone)]
pub struct Commitment {
    /// `levels[0]` is the padded leaf layer; the last level is `[root]`.
    levels: Vec<Vec<Root>>,
}

impl Commitment {
    /// The commitment root.
    pub fn root(&self) -> Root {
        self.levels
            .last()
            .and_then(|top| top.first())
            .copied()
            .expect("commit always builds at least the leaf level")
    }

    /// The inclusion proof of leaf `index` (`None` past the padded width).
    pub fn proof(&self, index: usize) -> Option<BlockProof> {
        if index >= self.levels[0].len() {
            return None;
        }
        let mut path = Vec::with_capacity(self.levels.len() - 1);
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            path.push(level[idx ^ 1]);
            idx >>= 1;
        }
        Some(BlockProof { path })
    }
}

/// Standalone block verification for receivers without a shared plan: the
/// tree depth is pinned from the advertised width `n`.
#[allow(clippy::too_many_arguments)] // the block header, spelled out
pub fn verify_block(
    root: &Root,
    file: u32,
    index: u32,
    m: u32,
    n: u32,
    original_len: u64,
    payload: &[u8],
    proof: &BlockProof,
) -> bool {
    if !fits_tree(index, n, proof) {
        return false;
    }
    let leaf = leaf_hash(file, index, m, n, original_len, payload);
    proof.verify(index, &leaf, root)
}

/// [`verify_block`] for two blocks of one file at once: when their payloads
/// have one length their leaves are hashed side by side, through the
/// two-lane path [`leaf_hashes`] pairs a file's leaves with; otherwise one
/// at a time.  Each verdict equals [`verify_block`]'s for that block.
#[allow(clippy::too_many_arguments)] // the shared header, spelled out
pub fn verify_block_pair(
    root: &Root,
    file: u32,
    m: u32,
    n: u32,
    original_len: u64,
    index: [u32; 2],
    payload: [&[u8]; 2],
    proof: [&BlockProof; 2],
) -> [bool; 2] {
    if payload[0].len() != payload[1].len() {
        return [0, 1].map(|i| {
            verify_block(
                root,
                file,
                index[i],
                m,
                n,
                original_len,
                payload[i],
                proof[i],
            )
        });
    }
    let leaf = leaf_pair(file, m, n, original_len, index, payload);
    [0, 1].map(|i| fits_tree(index[i], n, proof[i]) && proof[i].verify(index[i], &leaf[i], root))
}

/// Whether `proof` has the depth a width-`n` tree pins and `index` lies
/// inside that tree.
fn fits_tree(index: u32, n: u32, proof: &BlockProof) -> bool {
    let expected_depth = (n.max(1) as u64).next_power_of_two().trailing_zeros() as usize;
    proof.depth() == expected_depth && index < n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaves(n: usize) -> Vec<Root> {
        (0..n)
            .map(|i| leaf_hash(7, i as u32, 3, n as u32, 4096, &[i as u8; 64]))
            .collect()
    }

    #[test]
    fn every_leaf_of_every_width_verifies() {
        for n in 1..=17usize {
            let plan = CommitPlan::new(n).unwrap();
            let commitment = plan.commit(&leaves(n));
            let root = commitment.root();
            for i in 0..n {
                let proof = commitment.proof(i).unwrap();
                assert_eq!(proof.depth(), plan.depth());
                assert!(
                    verify_block(
                        &root,
                        7,
                        i as u32,
                        3,
                        n as u32,
                        4096,
                        &[i as u8; 64],
                        &proof
                    ),
                    "width {n} leaf {i}"
                );
            }
        }
    }

    #[test]
    fn any_tampering_fails() {
        let n = 10;
        let plan = CommitPlan::new(n).unwrap();
        let commitment = plan.commit(&leaves(n));
        let root = commitment.root();
        let proof = commitment.proof(4).unwrap();
        assert!(verify_block(
            &root, 7, 4, 3, n as u32, 4096, &[4u8; 64], &proof
        ));
        // Payload, header fields, index, width, root and path are each
        // binding.
        assert!(!verify_block(
            &root,
            7,
            4,
            3,
            n as u32,
            4096,
            &[0xAA; 64],
            &proof
        ));
        assert!(!verify_block(
            &root, 8, 4, 3, n as u32, 4096, &[4u8; 64], &proof
        ));
        assert!(!verify_block(
            &root, 7, 5, 3, n as u32, 4096, &[4u8; 64], &proof
        ));
        assert!(!verify_block(
            &root, 7, 4, 4, n as u32, 4096, &[4u8; 64], &proof
        ));
        assert!(!verify_block(
            &root, 7, 4, 3, n as u32, 4095, &[4u8; 64], &proof
        ));
        assert!(!verify_block(&root, 7, 4, 3, 11, 4096, &[4u8; 64], &proof));
        let mut bad_root = root;
        bad_root[0] ^= 1;
        assert!(!verify_block(
            &bad_root, 7, 4, 3, n as u32, 4096, &[4u8; 64], &proof
        ));
        let mut bad_path = proof.path().to_vec();
        bad_path[0][0] ^= 1;
        let bad = BlockProof::from_path(bad_path).unwrap();
        assert!(!verify_block(
            &root, 7, 4, 3, n as u32, 4096, &[4u8; 64], &bad
        ));
    }

    #[test]
    fn paired_verdicts_equal_one_block_at_a_time() {
        let n = 10;
        let commitment = CommitPlan::new(n).unwrap().commit(&leaves(n));
        let root = commitment.root();
        let proofs: Vec<BlockProof> = (0..n).map(|i| commitment.proof(i).unwrap()).collect();
        let payloads: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 64]).collect();
        // Each block honest, tampered, or cut to another length.
        let variant = |i: usize, how: usize| -> Vec<u8> {
            let mut p = payloads[i].clone();
            match how {
                0 => {}
                1 => p[9] ^= 0x10,
                _ => p.truncate(40),
            }
            p
        };
        for a in 0..n {
            for b in [0, 3, 9] {
                for (how_a, how_b) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)] {
                    let (pa, pb) = (variant(a, how_a), variant(b, how_b));
                    let index = [a as u32, b as u32];
                    let pair = verify_block_pair(
                        &root,
                        7,
                        3,
                        n as u32,
                        4096,
                        index,
                        [&pa, &pb],
                        [&proofs[a], &proofs[b]],
                    );
                    let alone = [(a, &pa), (b, &pb)].map(|(i, p)| {
                        verify_block(&root, 7, i as u32, 3, n as u32, 4096, p, &proofs[i])
                    });
                    assert_eq!(pair, alone, "blocks {a}/{b}, variants {how_a}/{how_b}");
                    assert_eq!(pair, [how_a == 0, how_b == 0]);
                }
            }
        }
    }

    #[test]
    fn proofs_do_not_transfer_between_positions() {
        let n = 8;
        let plan = CommitPlan::new(n).unwrap();
        let commitment = plan.commit(&leaves(n));
        let root = commitment.root();
        let proof_of_2 = commitment.proof(2).unwrap();
        // Block 3's contents under block 2's proof (and vice versa) fail.
        assert!(!verify_block(
            &root,
            7,
            3,
            3,
            n as u32,
            4096,
            &[3u8; 64],
            &proof_of_2
        ));
    }

    #[test]
    fn padding_leaves_are_not_provable_as_data() {
        // Width 5 pads to 8: indices 5..8 exist in the tree but
        // verification refuses them (index >= n).
        let n = 5;
        let plan = CommitPlan::new(n).unwrap();
        let commitment = plan.commit(&leaves(n));
        let root = commitment.root();
        let proof = commitment.proof(5).unwrap();
        assert!(!verify_block(&root, 7, 5, 3, n as u32, 4096, &[], &proof));
    }

    #[test]
    fn plan_bounds() {
        assert!(CommitPlan::new(0).is_none());
        assert!(CommitPlan::new(1 << MAX_DEPTH).is_some());
        assert!(CommitPlan::new((1 << MAX_DEPTH) + 1).is_none());
        assert!(BlockProof::from_path(vec![[0u8; 32]; MAX_DEPTH + 1]).is_none());
        // Width 1: the root *is* the leaf-layer hash, proofs are empty.
        let plan = CommitPlan::new(1).unwrap();
        assert_eq!(plan.depth(), 0);
        let commitment = plan.commit(&leaves(1));
        let proof = commitment.proof(0).unwrap();
        assert!(proof.path().is_empty());
        assert!(verify_block(
            &commitment.root(),
            7,
            0,
            3,
            1,
            4096,
            &[0u8; 64],
            &proof
        ));
    }

    #[test]
    fn commitments_are_deterministic() {
        let plan = CommitPlan::new(12).unwrap();
        let a = plan.commit(&leaves(12)).root();
        let b = plan.commit(&leaves(12)).root();
        assert_eq!(a, b);
        // And sensitive to any single leaf.
        let mut tampered = leaves(12);
        tampered[11][31] ^= 0x80;
        assert_ne!(plan.commit(&tampered).root(), a);
    }
}
