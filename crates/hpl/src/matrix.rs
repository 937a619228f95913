//! Column-major dense matrix storage.
//!
//! Column-major is the natural layout for LU: panels and trailing-column
//! chunks are contiguous, which both the cache and the per-worker column
//! blocks in [`crate::lu`] rely on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense `rows × cols` matrix of `f64`, column-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Square matrix with entries uniform in [-0.5, 0.5] (the HPL input
    /// distribution), deterministic per seed.
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n * n).map(|_| rng.gen_range(-0.5..0.5)).collect();
        Matrix {
            rows: n,
            cols: n,
            data,
        }
    }

    /// Build from a row-major slice (test convenience).
    pub fn from_rows(rows: usize, cols: usize, row_major: &[f64]) -> Self {
        assert_eq!(row_major.len(), rows * cols);
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = row_major[r * cols + c];
            }
        }
        m
    }

    /// Identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw column-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage (column-major; column `j` is
    /// `data[j*rows .. (j+1)*rows]`).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// One column as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols);
        let mut y = vec![0.0; self.rows];
        for (j, &xj) in x.iter().enumerate().take(self.cols) {
            let col = self.col(j);
            for i in 0..self.rows {
                y[i] += col[i] * xj;
            }
        }
        y
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        let mut row_sums = vec![0.0; self.rows];
        for j in 0..self.cols {
            let col = self.col(j);
            for i in 0..self.rows {
                row_sums[i] += col[i].abs();
            }
        }
        row_sums.into_iter().fold(0.0, f64::max)
    }

    /// Swap rows `a` and `b` across all columns.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(j * self.rows + a, j * self.rows + b);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[c * self.rows + r]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[c * self.rows + r]
    }
}

/// Infinity norm of a vector.
pub fn vec_norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |a, &v| a.max(v.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let mut m = Matrix::zeros(3, 2);
        m[(2, 1)] = 7.0;
        assert_eq!(m.as_slice()[5], 7.0); // column 1 * rows 3 + row 2
        assert_eq!(m[(2, 1)], 7.0);
    }

    #[test]
    fn from_rows_matches_index() {
        let m = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn random_is_deterministic_and_bounded() {
        let a = Matrix::random(16, 9);
        let b = Matrix::random(16, 9);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
        assert_ne!(a, Matrix::random(16, 10));
    }

    #[test]
    fn matvec_identity() {
        let i = Matrix::identity(4);
        let x = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x), x);
    }

    #[test]
    fn matvec_known() {
        let m = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn norm_inf_known() {
        let m = Matrix::from_rows(2, 2, &[1.0, -2.0, 3.0, 4.0]);
        assert_eq!(m.norm_inf(), 7.0);
        assert_eq!(vec_norm_inf(&[1.0, -9.0, 3.0]), 9.0);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        m.swap_rows(0, 1);
        assert_eq!(m[(0, 0)], 3.0);
        assert_eq!(m[(1, 1)], 2.0);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m[(1, 0)], 1.0);
    }
}
