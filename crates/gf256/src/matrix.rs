//! Dense matrices over GF(2⁸).
//!
//! The information dispersal algorithm needs three matrix facilities:
//!
//! 1. construction of an `N×m` dispersal matrix whose every `m×m` sub-matrix
//!    is invertible (the *systematic* Vandermonde variant, whose first `m`
//!    rows form the identity so the first `m` dispersed blocks are verbatim
//!    copies of the source);
//! 2. matrix × vector / matrix × matrix multiplication (dispersal and
//!    reconstruction are exactly this);
//! 3. inversion of an `m×m` matrix by Gauss–Jordan elimination
//!    (reconstruction from an arbitrary subset of `m` blocks).

use crate::{FieldError, Gf256};
use core::fmt;

/// Errors returned by matrix operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixError {
    /// The requested dimensions are inconsistent with the data supplied.
    DimensionMismatch {
        /// Rows × columns expected from the shape arguments.
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// The two operands of a product have incompatible shapes.
    IncompatibleShapes {
        /// Shape of the left operand.
        left: (usize, usize),
        /// Shape of the right operand.
        right: (usize, usize),
    },
    /// Inversion was requested for a non-square matrix.
    NotSquare {
        /// Shape of the offending matrix.
        shape: (usize, usize),
    },
    /// The matrix is singular and cannot be inverted.
    Singular,
    /// A dispersal matrix was requested with more rows than the field has
    /// distinct evaluation points.
    TooManyRows {
        /// Rows requested.
        requested: usize,
        /// Maximum supported by GF(2⁸).
        maximum: usize,
    },
    /// An index passed to a row-selection operation is out of range.
    RowOutOfRange {
        /// The offending row index.
        row: usize,
        /// Number of rows in the matrix.
        rows: usize,
    },
    /// A scalar operation failed (e.g. division by zero while inverting).
    Field(FieldError),
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimensionMismatch { expected, actual } => {
                write!(f, "expected {expected} elements, got {actual}")
            }
            MatrixError::IncompatibleShapes { left, right } => write!(
                f,
                "cannot multiply {}x{} by {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MatrixError::NotSquare { shape } => {
                write!(f, "matrix of shape {}x{} is not square", shape.0, shape.1)
            }
            MatrixError::Singular => write!(f, "matrix is singular"),
            MatrixError::TooManyRows { requested, maximum } => {
                write!(
                    f,
                    "requested {requested} rows, GF(256) supports at most {maximum}"
                )
            }
            MatrixError::RowOutOfRange { row, rows } => {
                write!(f, "row {row} out of range for matrix with {rows} rows")
            }
            MatrixError::Field(e) => write!(f, "field error: {e}"),
        }
    }
}

impl std::error::Error for MatrixError {}

impl From<FieldError> for MatrixError {
    fn from(value: FieldError) -> Self {
        MatrixError::Field(value)
    }
}

/// A dense, row-major matrix over GF(2⁸).
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf256>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl core::ops::Index<(usize, usize)> for Matrix {
    type Output = Gf256;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Gf256 {
        &self.data[r * self.cols + c]
    }
}

impl core::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf256 {
        &mut self.data[r * self.cols + c]
    }
}

impl Matrix {
    /// An all-zero matrix of the given shape.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![Gf256::ZERO; rows * cols],
        }
    }

    /// The identity matrix of order `n`.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Gf256::ONE;
        }
        m
    }

    /// Builds a matrix from row-major data.
    pub(crate) fn from_rows(
        rows: usize,
        cols: usize,
        data: Vec<Gf256>,
    ) -> Result<Self, MatrixError> {
        if data.len() != rows * cols {
            return Err(MatrixError::DimensionMismatch {
                expected: rows * cols,
                actual: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// A borrowed view of one row.
    pub fn row(&self, r: usize) -> &[Gf256] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns `true` if this is a square identity matrix.
    #[cfg(test)]
    pub(crate) fn is_identity(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                let expected = if r == c { Gf256::ONE } else { Gf256::ZERO };
                if self[(r, c)] != expected {
                    return false;
                }
            }
        }
        true
    }

    /// The `rows×cols` Vandermonde matrix with row `i` being
    /// `[1, αᵢ, αᵢ², …]` for distinct evaluation points `αᵢ = i`.
    ///
    /// Any `cols×cols` sub-matrix formed by choosing distinct rows is
    /// invertible, which is exactly the property IDA needs.  At most 256 rows
    /// are available (the field has 256 distinct elements).  The reference
    /// [`Matrix::systematic`]'s closed form is tested against.
    #[cfg(test)]
    pub(crate) fn vandermonde(rows: usize, cols: usize) -> Result<Self, MatrixError> {
        if rows > 256 {
            return Err(MatrixError::TooManyRows {
                requested: rows,
                maximum: 256,
            });
        }
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            let x = Gf256::new(r as u8);
            for c in 0..cols {
                m[(r, c)] = x.pow(c);
            }
        }
        Ok(m)
    }

    /// A *systematic* dispersal matrix: the first `cols` rows form the
    /// identity (so the first `cols` dispersed blocks are plain copies of the
    /// source blocks) and every `cols×cols` sub-matrix remains invertible.
    ///
    /// It is the Vandermonde matrix `V` (evaluation points `xᵢ = i`)
    /// row-reduced so that its top square is the identity, `V · V_top⁻¹` —
    /// row reduction by an invertible matrix preserves the
    /// any-subset-invertible property — written in closed form.  Column `j`
    /// of `V_top⁻¹` holds the coefficients of the Lagrange basis polynomial
    /// `Lⱼ` of the top rows' points, and a Vandermonde row evaluates a
    /// polynomial at its point, so entry `(r, j)` is `Lⱼ(x_r)`: `δ_rj` in
    /// the top square, and below it
    /// `∏_{k<cols} (x_r + x_k) · (x_r + x_j)⁻¹ · (∏_{k<cols, k≠j} (x_j + x_k))⁻¹`
    /// (`+` is the field's subtraction too).  No matrix is inverted.
    pub fn systematic(rows: usize, cols: usize) -> Result<Self, MatrixError> {
        if rows < cols {
            return Err(MatrixError::DimensionMismatch {
                expected: cols,
                actual: rows,
            });
        }
        if rows > 256 {
            return Err(MatrixError::TooManyRows {
                requested: rows,
                maximum: 256,
            });
        }
        let x = |i: usize| Gf256::new(i as u8);
        let weights = (0..cols)
            .map(|j| {
                let others = (0..cols).filter(|&k| k != j);
                others.map(|k| x(j) + x(k)).product::<Gf256>().inverse()
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut m = Matrix::zero(rows, cols);
        for r in 0..cols {
            m[(r, r)] = Gf256::ONE;
        }
        for r in cols..rows {
            let node: Gf256 = (0..cols).map(|k| x(r) + x(k)).product();
            for (j, &weight) in weights.iter().enumerate() {
                m[(r, j)] = node * weight * (x(r) + x(j)).inverse()?;
            }
        }
        Ok(m)
    }

    /// Extracts the sub-matrix consisting of the given rows (in order).
    pub fn submatrix_rows(&self, rows: &[usize]) -> Result<Self, MatrixError> {
        let mut data = Vec::with_capacity(rows.len() * self.cols);
        for &r in rows {
            if r >= self.rows {
                return Err(MatrixError::RowOutOfRange {
                    row: r,
                    rows: self.rows,
                });
            }
            data.extend_from_slice(self.row(r));
        }
        Matrix::from_rows(rows.len(), self.cols, data)
    }

    /// Matrix product `self × rhs`.
    #[cfg(test)]
    pub(crate) fn mul(&self, rhs: &Matrix) -> Result<Matrix, MatrixError> {
        if self.cols != rhs.rows {
            return Err(MatrixError::IncompatibleShapes {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a.is_zero() {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Applies each row of the matrix to `columns`-many source vectors at
    /// once: given `sources[c][k]` (the k-th byte of source block c), produces
    /// `out[r][k] = Σ_c self[r,c] · sources[c][k]`.
    ///
    /// This is the bulk encoding kernel used by IDA: one call encodes an
    /// entire file rather than a single column vector.
    pub fn mul_blocks(&self, sources: &[Vec<Gf256>]) -> Result<Vec<Vec<Gf256>>, MatrixError> {
        if sources.len() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                expected: self.cols,
                actual: sources.len(),
            });
        }
        let block_len = sources.first().map_or(0, Vec::len);
        let mut out = vec![vec![Gf256::ZERO; block_len]; self.rows];
        for (r, out_row) in out.iter_mut().enumerate() {
            for (c, src) in sources.iter().enumerate() {
                let coeff = self[(r, c)];
                if coeff.is_zero() {
                    continue;
                }
                for (o, s) in out_row.iter_mut().zip(src.iter()) {
                    *o += coeff * *s;
                }
            }
        }
        Ok(out)
    }

    /// The inverse of a square matrix, computed with Gauss–Jordan
    /// elimination with partial pivoting (pivoting only needs to find *any*
    /// non-zero pivot in an exact field).
    pub fn inverted(&self) -> Result<Matrix, MatrixError> {
        if self.rows != self.cols {
            return Err(MatrixError::NotSquare {
                shape: self.shape(),
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            // Find a pivot row with a non-zero entry in this column.
            let pivot = (col..n)
                .find(|&r| !a[(r, col)].is_zero())
                .ok_or(MatrixError::Singular)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalise the pivot row.
            let p = a[(col, col)];
            let p_inv = p.inverse()?;
            a.scale_row(col, p_inv);
            inv.scale_row(col, p_inv);
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = a[(r, col)];
                if factor.is_zero() {
                    continue;
                }
                a.add_scaled_row(r, col, factor);
                inv.add_scaled_row(r, col, factor);
            }
        }
        Ok(inv)
    }

    /// The matrix rank, via Gaussian elimination on a copy.
    pub fn rank(&self) -> usize {
        let mut a = self.clone();
        let mut rank = 0;
        let mut row = 0;
        for col in 0..a.cols {
            if row >= a.rows {
                break;
            }
            let pivot = (row..a.rows).find(|&r| !a[(r, col)].is_zero());
            let Some(pivot) = pivot else { continue };
            a.swap_rows(pivot, row);
            let p_inv = a[(row, col)].inverse().expect("pivot is non-zero");
            a.scale_row(row, p_inv);
            for r in 0..a.rows {
                if r != row && !a[(r, col)].is_zero() {
                    let factor = a[(r, col)];
                    a.add_scaled_row(r, row, factor);
                }
            }
            row += 1;
            rank += 1;
        }
        rank
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, factor: Gf256) {
        for c in 0..self.cols {
            self[(r, c)] *= factor;
        }
    }

    /// `row[target] -= factor * row[source]` (which in GF(2) characteristic is
    /// the same as `+=`).
    fn add_scaled_row(&mut self, target: usize, source: usize, factor: Gf256) {
        for c in 0..self.cols {
            let s = self[(source, c)];
            self[(target, c)] += factor * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_bytes(rows: usize, cols: usize, data: &[u8]) -> Result<Matrix, MatrixError> {
        Matrix::from_rows(rows, cols, data.iter().copied().map(Gf256::new).collect())
    }

    #[test]
    fn identity_times_anything_is_unchanged() {
        let v = Matrix::vandermonde(4, 4).unwrap();
        let i = Matrix::identity(4);
        assert_eq!(i.mul(&v).unwrap(), v);
        assert_eq!(v.mul(&i).unwrap(), v);
    }

    #[test]
    fn vandermonde_square_is_invertible() {
        for n in 1..=16 {
            let v = Matrix::vandermonde(n, n).unwrap();
            let inv = v.inverted().expect("vandermonde is invertible");
            assert!(v.mul(&inv).unwrap().is_identity(), "n = {n}");
            assert!(inv.mul(&v).unwrap().is_identity(), "n = {n}");
        }
    }

    #[test]
    fn every_vandermonde_row_subset_is_invertible() {
        // The IDA guarantee: any m rows of the N×m dispersal matrix form an
        // invertible matrix. Check exhaustively for a small configuration.
        let n = 8;
        let m = 3;
        let v = Matrix::vandermonde(n, m).unwrap();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let sub = v.submatrix_rows(&[a, b, c]).unwrap();
                    assert_eq!(sub.rank(), m, "rows {a},{b},{c}");
                    assert!(sub.inverted().is_ok(), "rows {a},{b},{c}");
                }
            }
        }
    }

    /// `V · V_top⁻¹` by actually inverting — the construction
    /// [`Matrix::systematic`] was defined by, kept as its reference.
    fn systematic_by_inversion(rows: usize, cols: usize) -> Matrix {
        let v = Matrix::vandermonde(rows, cols).unwrap();
        let top = v.submatrix_rows(&(0..cols).collect::<Vec<_>>()).unwrap();
        v.mul(&top.inverted().unwrap()).unwrap()
    }

    #[test]
    fn systematic_closed_form_equals_the_row_reduced_vandermonde() {
        let small = (0..=40).flat_map(|n| (0..=n).map(move |m| (m, n)));
        let large = [(64, 68), (128, 136), (200, 255), (255, 255), (256, 256)];
        for (m, n) in small.chain(large) {
            assert_eq!(
                Matrix::systematic(n, m).unwrap(),
                systematic_by_inversion(n, m),
                "(m, n) = ({m}, {n})"
            );
        }
        assert!(matches!(
            Matrix::systematic(3, 4),
            Err(MatrixError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            Matrix::systematic(257, 4),
            Err(MatrixError::TooManyRows { .. })
        ));
    }

    #[test]
    fn systematic_matrix_has_identity_prefix_and_invertible_subsets() {
        let n = 10;
        let m = 4;
        let s = Matrix::systematic(n, m).unwrap();
        let top = s.submatrix_rows(&(0..m).collect::<Vec<_>>()).unwrap();
        assert!(top.is_identity());
        // Check a selection of mixed subsets.
        let subsets: [[usize; 4]; 5] = [
            [0, 1, 2, 3],
            [0, 4, 5, 6],
            [6, 7, 8, 9],
            [1, 3, 5, 7],
            [2, 4, 8, 9],
        ];
        for rows in subsets {
            let sub = s.submatrix_rows(&rows).unwrap();
            assert!(sub.inverted().is_ok(), "rows {rows:?}");
        }
    }

    #[test]
    fn singular_matrix_is_rejected() {
        // Two identical rows.
        let m = from_bytes(2, 2, &[1, 2, 1, 2]).unwrap();
        assert_eq!(m.inverted().unwrap_err(), MatrixError::Singular);
        assert_eq!(m.rank(), 1);
    }

    #[test]
    fn shape_errors_are_reported() {
        assert!(matches!(
            from_bytes(2, 2, &[1, 2, 3]),
            Err(MatrixError::DimensionMismatch { .. })
        ));
        let a = Matrix::identity(2);
        let b = Matrix::identity(3);
        assert!(matches!(
            a.mul(&b),
            Err(MatrixError::IncompatibleShapes { .. })
        ));
        let rect = Matrix::zero(2, 3);
        assert!(matches!(
            rect.inverted(),
            Err(MatrixError::NotSquare { .. })
        ));
        assert!(matches!(
            Matrix::vandermonde(300, 3),
            Err(MatrixError::TooManyRows { .. })
        ));
        assert!(matches!(
            a.submatrix_rows(&[5]),
            Err(MatrixError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            a.mul_blocks(&[vec![Gf256::ONE]]),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn round_trip_encode_decode_via_inverse() {
        // Simulates IDA at the matrix level: encode 3 source blocks into 6,
        // drop 3, reconstruct from the survivors.
        let m = 3;
        let n = 6;
        let disp = Matrix::vandermonde(n, m).unwrap();
        let sources = vec![
            vec![Gf256::new(10), Gf256::new(20)],
            vec![Gf256::new(30), Gf256::new(40)],
            vec![Gf256::new(50), Gf256::new(60)],
        ];
        let encoded = disp.mul_blocks(&sources).unwrap();
        // Keep rows 1, 3, 4.
        let keep = [1usize, 3, 4];
        let sub = disp.submatrix_rows(&keep).unwrap();
        let sub_inv = sub.inverted().unwrap();
        let received: Vec<Vec<Gf256>> = keep.iter().map(|&r| encoded[r].clone()).collect();
        let decoded = sub_inv.mul_blocks(&received).unwrap();
        assert_eq!(decoded, sources);
    }

    #[test]
    fn rank_of_rectangular_matrices() {
        let v = Matrix::vandermonde(6, 3).unwrap();
        assert_eq!(v.rank(), 3);
        let z = Matrix::zero(4, 4);
        assert_eq!(z.rank(), 0);
        assert_eq!(Matrix::identity(5).rank(), 5);
    }

    #[test]
    fn debug_rendering_contains_dimensions() {
        let m = Matrix::identity(2);
        let s = format!("{m:?}");
        assert!(s.contains("2x2"));
    }
}
