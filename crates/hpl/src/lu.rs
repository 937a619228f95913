//! Blocked LU factorization with partial pivoting, and the triangular
//! solves — the computational heart of Linpack.
//!
//! Right-looking algorithm: factor an `nb`-wide panel with row pivoting,
//! then update the trailing submatrix. The trailing update (forward
//! substitution for `U12` plus the `A22 -= L21·U12` GEMM) is
//! column-independent, so it parallelizes across contiguous column
//! blocks, one per worker — the same decomposition HPL uses across MPI
//! ranks, here across threads.

use crate::matrix::Matrix;
use xcbc_sim::pool;

/// The matrix was exactly singular at the given column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    /// The column at which elimination found no nonzero pivot.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

/// Factor `A = P·L·U` in place (`L` unit-lower below the diagonal, `U`
/// upper). Returns the pivot vector: `piv[j]` is the row swapped with
/// row `j` at step `j`.
///
/// * `nb` — panel width (block size). Anything ≥ 1 works; 32–64 is fast.
/// * `threads` — worker threads for the trailing update (1 = serial).
pub fn lu_factor(a: &mut Matrix, nb: usize, threads: usize) -> Result<Vec<usize>, SingularMatrix> {
    assert_eq!(a.rows(), a.cols(), "LU needs a square matrix");
    assert!(nb >= 1 && threads >= 1);
    let n = a.rows();
    let mut piv = vec![0usize; n];

    let mut k0 = 0;
    while k0 < n {
        let kb = nb.min(n - k0);
        let panel_end = k0 + kb;

        // --- panel factorization with partial pivoting ---
        for j in k0..panel_end {
            // pivot search in column j, rows j..n
            let (mut p, mut maxval) = (j, a[(j, j)].abs());
            for i in j + 1..n {
                let v = a[(i, j)].abs();
                if v > maxval {
                    p = i;
                    maxval = v;
                }
            }
            if maxval == 0.0 {
                return Err(SingularMatrix { column: j });
            }
            piv[j] = p;
            a.swap_rows(j, p);

            // scale L column
            let diag = a[(j, j)];
            for i in j + 1..n {
                a[(i, j)] /= diag;
            }
            // rank-1 update of the rest of the panel
            for jj in j + 1..panel_end {
                let u = a[(j, jj)];
                if u == 0.0 {
                    continue;
                }
                for i in j + 1..n {
                    let lij = a[(i, j)];
                    a[(i, jj)] -= lij * u;
                }
            }
        }

        if panel_end < n {
            // --- trailing update, column-parallel ---
            let (left, right) = a.as_mut_slice().split_at_mut(panel_end * n);
            let update_col = |cj: &mut [f64]| {
                // forward-substitute U12 rows (unit L11)
                for l in k0..panel_end {
                    let x = cj[l];
                    if x == 0.0 {
                        continue;
                    }
                    let lcol = &left[l * n..(l + 1) * n];
                    for i in l + 1..panel_end {
                        cj[i] -= lcol[i] * x;
                    }
                }
                // A22 -= L21 · U12 for this column
                for l in k0..panel_end {
                    let x = cj[l];
                    if x == 0.0 {
                        continue;
                    }
                    let lcol = &left[l * n..(l + 1) * n];
                    for i in panel_end..n {
                        cj[i] -= lcol[i] * x;
                    }
                }
            };
            let per_worker = (n - panel_end).div_ceil(threads) * n;
            pool::map(threads, right.chunks_mut(per_worker), |block| {
                block.chunks_mut(n).for_each(&update_col)
            });
        }
        k0 = panel_end;
    }
    Ok(piv)
}

/// Solve `A x = b` given the in-place factorization and pivots.
pub fn lu_solve(a: &Matrix, piv: &[usize], b: &[f64]) -> Vec<f64> {
    let n = a.rows();
    assert_eq!(b.len(), n);
    assert_eq!(piv.len(), n);
    let mut x = b.to_vec();
    // apply row interchanges in factorization order
    for (j, &pj) in piv.iter().enumerate().take(n) {
        x.swap(j, pj);
    }
    // forward substitution, unit lower
    for j in 0..n {
        let xj = x[j];
        if xj == 0.0 {
            continue;
        }
        let col = a.col(j);
        for i in j + 1..n {
            x[i] -= col[i] * xj;
        }
    }
    // back substitution, upper
    for j in (0..n).rev() {
        x[j] /= a[(j, j)];
        let xj = x[j];
        if xj == 0.0 {
            continue;
        }
        let col = a.col(j);
        for i in 0..j {
            x[i] -= col[i] * xj;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::vec_norm_inf;

    /// Reconstruct P·A from L·U and check against the original.
    fn check_plu(orig: &Matrix, fact: &Matrix, piv: &[usize], tol: f64) {
        let n = orig.rows();
        // build L and U
        let mut l = Matrix::identity(n);
        let mut u = Matrix::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                if i > j {
                    l[(i, j)] = fact[(i, j)];
                } else {
                    u[(i, j)] = fact[(i, j)];
                }
            }
        }
        // P*orig: apply the same row swaps to a copy
        let mut pa = orig.clone();
        for (j, &pj) in piv.iter().enumerate().take(n) {
            pa.swap_rows(j, pj);
        }
        // compare P*A with L*U column by column
        for j in 0..n {
            let ucol: Vec<f64> = (0..n).map(|i| u[(i, j)]).collect();
            let lu_col = l.matvec(&ucol);
            for i in 0..n {
                assert!(
                    (pa[(i, j)] - lu_col[i]).abs() < tol,
                    "PA != LU at ({i},{j}): {} vs {}",
                    pa[(i, j)],
                    lu_col[i]
                );
            }
        }
    }

    #[test]
    fn factor_small_known() {
        // A = [[2, 1], [4, 3]] — pivot swaps rows
        let mut a = Matrix::from_rows(2, 2, &[2.0, 1.0, 4.0, 3.0]);
        let orig = a.clone();
        let piv = lu_factor(&mut a, 1, 1).unwrap();
        check_plu(&orig, &a, &piv, 1e-14);
        assert_eq!(piv[0], 1, "row 1 (value 4) must pivot to the top");
    }

    #[test]
    fn factor_random_various_block_sizes() {
        for n in [1usize, 2, 3, 5, 17, 48, 65] {
            for nb in [1usize, 4, 8, 32] {
                let orig = Matrix::random(n, 42);
                let mut a = orig.clone();
                let piv = lu_factor(&mut a, nb, 1).unwrap();
                check_plu(&orig, &a, &piv, 1e-9 * n as f64);
            }
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        for n in [33usize, 64, 100] {
            let orig = Matrix::random(n, 7);
            let mut serial = orig.clone();
            let piv_s = lu_factor(&mut serial, 16, 1).unwrap();
            let mut par = orig.clone();
            let piv_p = lu_factor(&mut par, 16, 4).unwrap();
            assert_eq!(piv_s, piv_p);
            // identical arithmetic order per column → bitwise equal
            assert_eq!(serial.as_slice(), par.as_slice());
        }
    }

    #[test]
    fn solve_recovers_known_vector() {
        let n = 50;
        let orig = Matrix::random(n, 3);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) / 10.0 - 2.0).collect();
        let b = orig.matvec(&x_true);
        let mut a = orig.clone();
        let piv = lu_factor(&mut a, 8, 1).unwrap();
        let x = lu_solve(&a, &piv, &b);
        let err: Vec<f64> = x.iter().zip(&x_true).map(|(a, b)| a - b).collect();
        assert!(
            vec_norm_inf(&err) < 1e-8,
            "solution error {}",
            vec_norm_inf(&err)
        );
    }

    #[test]
    fn singular_matrix_detected() {
        // second column is a multiple of the first
        let mut a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]);
        let err = lu_factor(&mut a, 2, 1).unwrap_err();
        assert_eq!(err.column, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn zero_matrix_singular_at_first_column() {
        let mut a = Matrix::zeros(3, 3);
        assert_eq!(lu_factor(&mut a, 2, 1).unwrap_err().column, 0);
    }

    #[test]
    fn identity_factors_trivially() {
        let mut a = Matrix::identity(8);
        let piv = lu_factor(&mut a, 4, 2).unwrap();
        assert_eq!(piv, (0..8).collect::<Vec<_>>());
        let b = vec![1.0; 8];
        assert_eq!(lu_solve(&a, &piv, &b), b);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        let mut a = Matrix::zeros(2, 3);
        let _ = lu_factor(&mut a, 1, 1);
    }
}
