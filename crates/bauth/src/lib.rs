//! # bauth — Merkle-committed broadcast blocks
//!
//! The paper's fault model is erasures: any `n − m` lost blocks are
//! absorbed by the IDA math, and a loss only costs latency (Lemma 2).  A
//! *corrupted* block is worse — one wrong payload that slips past the link
//! CRC silently poisons the reconstruction.  This crate closes that gap by
//! committing each file's dispersed blocks into a per-file Merkle tree at
//! disperse time and verifying each block against an O(log n) inclusion
//! proof on receive, so corruption degrades into exactly the erasures the
//! `n − m` budget already tolerates: the fault model upgrades from crash to
//! Byzantine without touching the latency analysis.
//!
//! Pieces:
//!
//! * [`sha256`] — a self-contained FIPS 180-4 hash (the build
//!   vendors all dependencies; hashing is ~80 lines, not a crate pull);
//! * [`leaf_hash`] — binds a block's `(file, index, m, n, original_len)`
//!   header *and* payload into one leaf, so proofs vouch for identity, not
//!   just bytes;
//! * [`leaf_hashes`] — the same leaves for a whole file at once, hashed two
//!   at a time: on SHA-NI hardware the two messages' rounds interleave
//!   (1.1–1.3× one leaf at a time, measured on a 2-vCPU x86-64 box),
//!   elsewhere it is two single hashes.  Dispersal commits every
//!   authenticated file through it;
//! * [`CommitPlan`] — per-dispersal tree shape (depth, padding hashes),
//!   built once per `(m, n)` configuration and `Arc`-shared by its
//!   clones;
//! * [`Commitment`] — a built tree: the [`Root`] plus O(log n)-lookup
//!   per-block [`BlockProof`]s;
//! * [`verify_block`] — standalone verify-on-receive for receivers that
//!   only hold the advertised `(root, n)`; [`verify_block_pair`] checks two
//!   blocks of one file with their leaves hashed side by side.
//!
//! The crate is std-only and dependency-free, so every layer from `ida` up
//! can use it without widening the build.

// `deny`, not `forbid`: the one sanctioned exception is the SHA-NI
// compression path in `sha256`, which needs `core::arch` intrinsics and
// carries its own scoped `allow` with the safety argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod merkle;
mod sha256;

pub use merkle::{
    leaf_hash, leaf_hashes, verify_block, verify_block_pair, BlockProof, CommitPlan, Commitment,
    Root, MAX_DEPTH,
};
pub use sha256::sha256;
