//! # gf256 — finite-field substrate for information dispersal
//!
//! This crate implements arithmetic over the Galois field GF(2⁸), together
//! with dense matrices over that field.  It is the numeric
//! substrate underneath Rabin's Information Dispersal Algorithm (IDA) as used
//! by the broadcast-disk crates in this workspace: dispersal is a matrix
//! multiplication over GF(2⁸), and reconstruction multiplies by the inverse
//! of a square sub-matrix of the dispersal matrix (for a systematic one,
//! only the k×k block that solves the k missing source blocks).
//!
//! The field is realised with the Reed–Solomon-style irreducible polynomial
//! `x⁸ + x⁴ + x³ + x² + 1` (bit pattern `0x11d`).  Scalar multiplication and
//! division use compile-time generated exponential/logarithm tables, so a
//! single multiply is two table lookups and one conditional.  Bulk
//! constant-coefficient multiplication — the shape information dispersal
//! actually needs — goes through the vectorizable slice kernel of a
//! [`MulTable`] instead, cheap enough to build per coefficient per call.
//!
//! ## Quick example
//!
//! ```
//! use gf256::{Gf256, Matrix};
//!
//! let a = Gf256::new(0x53);
//! let b = Gf256::new(0xCA);
//! assert_eq!((a * b) / b, a);
//!
//! // Any 3 rows of a 5×3 systematic dispersal matrix are invertible.
//! let sub = Matrix::systematic(5, 3).unwrap().submatrix_rows(&[1, 3, 4]).unwrap();
//! let inv = sub.inverted().unwrap();
//! assert_eq!(inv.inverted().unwrap(), sub);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod field;
mod kernel;
mod matrix;

pub use field::Gf256;
pub use kernel::MulTable;
pub use matrix::{Matrix, MatrixError};

/// Errors produced by field-level operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldError {
    /// The inverse of the zero element was requested.
    ZeroHasNoInverse,
}

impl core::fmt::Display for FieldError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FieldError::ZeroHasNoInverse => write!(f, "zero has no multiplicative inverse"),
        }
    }
}

impl std::error::Error for FieldError {}
