//! # ida — Rabin's Information Dispersal Algorithm and the Adaptive IDA
//!
//! This crate implements the dispersal/reconstruction machinery the paper's
//! fault-tolerant broadcast disks are built on:
//!
//! * **IDA** (Rabin 1989): a file of `m` blocks is *dispersed* into `N ≥ m`
//!   blocks such that **any** `m` of them suffice to reconstruct the file.
//!   Dispersal is a matrix multiplication over GF(2⁸) by an `N×m` matrix all
//!   of whose `m×m` sub-matrices are invertible; reconstruction multiplies by
//!   the inverse of the sub-matrix corresponding to the received blocks
//!   (Figure 3 of the paper).
//! * **AIDA** (Bestavros 1994): a *bandwidth-allocation* step inserted
//!   between dispersal and transmission selects how many of the `N` blocks,
//!   `n ∈ [m, N]`, are actually transmitted — trading bandwidth for fault
//!   tolerance per file and per mode of operation (Figure 4 of the paper).
//!
//! Blocks are *self-identifying* (Section 2.1): every [`DispersedBlock`]
//! carries the file it belongs to, its sequence number, and the dispersal
//! parameters, so a client can pick the correct inverse transformation.
//!
//! Both directions run on `gf256`'s vectorized slice kernels, with
//! per-coefficient multiplication tables built per call and kept nowhere.
//! The generator is systematic: source blocks disperse as views of the
//! file, and a reconstruction copies the source blocks it received and
//! solves only the `k` it is missing, from a `k×k` system of the coded
//! blocks received in their place.  The hot paths never touch
//! element-at-a-time field arithmetic.
//!
//! ## Quick example
//!
//! ```
//! use ida::{Dispersal, FileId};
//!
//! let payload: Vec<u8> = (0u8..=255).cycle().take(5_000).collect();
//! // Disperse into 10 blocks, any 5 of which reconstruct the file.
//! let dispersal = Dispersal::new(5, 10).unwrap();
//! let dispersed = dispersal.disperse(FileId(7), &payload).unwrap();
//! assert_eq!(dispersed.blocks().len(), 10);
//!
//! // Lose half of the blocks (indices 0, 2, 4, 6, 8) — reconstruction still works.
//! let survivors: Vec<_> = dispersed
//!     .blocks()
//!     .iter()
//!     .filter(|b| b.index() % 2 == 1)
//!     .cloned()
//!     .collect();
//! let recovered = dispersal.reconstruct(&survivors).unwrap();
//! assert_eq!(recovered, payload);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aida;
mod block;
mod dispersal;

pub use aida::{ModeProfile, RedundancyPolicy};
pub use block::{BlockHeader, DispersedBlock, FileId};
/// The shared payload buffer of a [`DispersedBlock`] and the content type of
/// [`Dispersal::disperse_bytes`].
pub use bytes::Bytes;
pub use dispersal::{Dispersal, DispersedFile};

use gf256::MatrixError;

/// Errors produced by dispersal and reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdaError {
    /// `m` (the reconstruction threshold) must be at least 1.
    ThresholdTooSmall,
    /// `n` (the number of dispersed blocks) must satisfy `m ≤ n ≤ 255`.
    InvalidBlockCount {
        /// Reconstruction threshold requested.
        m: usize,
        /// Total block count requested.
        n: usize,
    },
    /// The file to disperse was empty.
    EmptyFile,
    /// Fewer than `m` distinct blocks were supplied to `reconstruct`.
    NotEnoughBlocks {
        /// Blocks required.
        required: usize,
        /// Distinct blocks supplied.
        supplied: usize,
    },
    /// Blocks from different files (or with inconsistent dispersal headers)
    /// were mixed in a single reconstruction call.
    InconsistentBlocks,
    /// A block index exceeded the dispersal width recorded in its own header.
    CorruptHeader {
        /// The offending block index.
        index: usize,
        /// The dispersal width from the header.
        n: usize,
    },
    /// An underlying matrix operation failed.
    Matrix(MatrixError),
}

impl core::fmt::Display for IdaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IdaError::ThresholdTooSmall => write!(f, "reconstruction threshold m must be ≥ 1"),
            IdaError::InvalidBlockCount { m, n } => {
                write!(
                    f,
                    "invalid dispersal parameters: need m ≤ n ≤ 255, got m={m}, n={n}"
                )
            }
            IdaError::EmptyFile => write!(f, "cannot disperse an empty file"),
            IdaError::NotEnoughBlocks { required, supplied } => {
                write!(
                    f,
                    "need {required} distinct blocks to reconstruct, got {supplied}"
                )
            }
            IdaError::InconsistentBlocks => {
                write!(
                    f,
                    "blocks belong to different files or dispersal configurations"
                )
            }
            IdaError::CorruptHeader { index, n } => {
                write!(
                    f,
                    "block index {index} out of range for dispersal width {n}"
                )
            }
            IdaError::Matrix(e) => write!(f, "matrix error: {e}"),
        }
    }
}

impl std::error::Error for IdaError {}

impl From<MatrixError> for IdaError {
    fn from(value: MatrixError) -> Self {
        IdaError::Matrix(value)
    }
}
