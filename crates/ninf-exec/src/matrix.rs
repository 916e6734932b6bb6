//! Column-major dense matrix, matching the Fortran storage the original
//! Linpack/libSci routines assume and the layout Ninf ships on the wire.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense column-major `rows × cols` matrix of `f64`.
///
/// Column-major order matters: Ninf marshals matrices as one flat XDR double
/// array, and the LU routines walk columns for stride-1 access exactly like
/// the Fortran originals.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from row slices (convenient in tests).
    ///
    /// # Panics
    /// Panics if rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut m = Self::zeros(r, c);
        for (i, row) in rows.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Adopt a column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the column-major backing storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the column-major backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume into the column-major backing storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow column `j` as a contiguous slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j` as a contiguous slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Split into two mutable column ranges `[0, mid)` and `[mid, cols)`.
    ///
    /// Needed by the blocked LU update where the panel is read while the
    /// trailing matrix is written.
    pub fn split_cols_mut(&mut self, mid: usize) -> (ColsMut<'_>, ColsMut<'_>) {
        let (left, right) = self.data.split_at_mut(mid * self.rows);
        (
            ColsMut {
                rows: self.rows,
                cols: mid,
                data: left,
            },
            ColsMut {
                rows: self.rows,
                cols: self.cols - mid,
                data: right,
            },
        )
    }

    /// Matrix–vector product `A·x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate() {
            if xj != 0.0 {
                let col = self.col(j);
                for (yi, &cij) in y.iter_mut().zip(col) {
                    *yi += cij * xj;
                }
            }
        }
        y
    }

    /// Max-absolute-entry norm.
    pub fn max_norm(&self) -> f64 {
        self.data.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()))
    }

    /// Infinity norm (max absolute row sum).
    pub fn inf_norm(&self) -> f64 {
        let mut row_sums = vec![0.0f64; self.rows];
        for j in 0..self.cols {
            let col = self.col(j);
            for i in 0..self.rows {
                row_sums[i] += col[i].abs();
            }
        }
        row_sums.into_iter().fold(0.0, f64::max)
    }
}

/// A mutable view over a contiguous range of columns (see
/// [`Matrix::split_cols_mut`]).
pub struct ColsMut<'a> {
    rows: usize,
    cols: usize,
    data: &'a mut [f64],
}

impl<'a> ColsMut<'a> {
    /// Number of rows in the view.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns in the view.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow column `j` of the view.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j` of the view.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// The raw backing slice of the view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[j * self.rows + i]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[j * self.rows + i]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_is_column_major() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        // columns: (1,3), (2,4)
        assert_eq!(m.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(m.col(0), &[1.0, 3.0]);
        assert_eq!(m.col(1), &[2.0, 4.0]);
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn matmul_ref_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = crate::dmmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[1.0, -5.0], &[2.0, 2.0]]);
        assert_eq!(m.max_norm(), 5.0);
        assert_eq!(m.inf_norm(), 6.0);
    }

    #[test]
    fn split_cols_views_are_disjoint() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        {
            let (left, mut right) = m.split_cols_mut(1);
            assert_eq!(left.cols(), 1);
            assert_eq!(right.cols(), 2);
            assert_eq!(left.col(0), &[1.0, 4.0]);
            right.col_mut(0)[0] = 99.0;
        }
        assert_eq!(m[(0, 1)], 99.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_buffer_panics() {
        let _ = Matrix::from_col_major(2, 2, vec![0.0; 3]);
    }
}
