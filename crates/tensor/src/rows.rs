//! Row gather/scatter and per-row kernels: the index plumbing that moves
//! node features along a bipartite layer's edge lists.

use crate::matrix::Matrix;

/// Row-gather: `out[i, :] = x[idx[i], :]`.
pub fn gather_rows(x: &Matrix, idx: &[u32]) -> Matrix {
    let cols = x.cols();
    let mut out = Matrix::zeros(idx.len(), cols);
    for (i, &r) in idx.iter().enumerate() {
        let r = r as usize;
        debug_assert!(
            r < x.rows(),
            "gather_rows: index {} out of {} rows",
            r,
            x.rows()
        );
        out.row_mut(i).copy_from_slice(x.row(r));
    }
    out
}

/// Row-scatter-add: `out[idx[i], :] += x[i, :]` into a zero matrix with
/// `out_rows` rows. Inverse (adjoint) of [`gather_rows`].
pub fn scatter_add_rows(x: &Matrix, idx: &[u32], out_rows: usize) -> Matrix {
    assert_eq!(x.rows(), idx.len(), "scatter_add_rows: row/index mismatch");
    let cols = x.cols();
    let mut out = Matrix::zeros(out_rows, cols);
    for (i, &r) in idx.iter().enumerate() {
        let r = r as usize;
        debug_assert!(r < out_rows);
        let dst = out.row_mut(r);
        let src = x.row(i);
        for (d, s) in dst.iter_mut().zip(src) {
            *d += *s;
        }
    }
    out
}

/// Scale each row `i` of `x` by the scalar `s[i]` (s is Ex1).
pub fn scale_rows(x: &Matrix, s: &Matrix) -> Matrix {
    assert_eq!(s.cols(), 1);
    assert_eq!(x.rows(), s.rows());
    let mut out = x.clone();
    for r in 0..x.rows() {
        let f = s.as_slice()[r];
        for v in out.row_mut(r) {
            *v *= f;
        }
    }
    out
}

/// Row-wise dot product of two same-shape matrices: returns Ex1 column.
pub fn rowwise_dot(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape());
    let mut out = Matrix::zeros(a.rows(), 1);
    for r in 0..a.rows() {
        let mut acc = 0.0f32;
        for (&x, &y) in a.row(r).iter().zip(b.row(r)) {
            acc += x * y;
        }
        out.as_mut_slice()[r] = acc;
    }
    out
}

/// Horizontally concatenate two matrices with equal row counts.
pub fn concat_cols(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "concat_cols: row mismatch");
    let mut out = Matrix::zeros(a.rows(), a.cols() + b.cols());
    for r in 0..a.rows() {
        let (left, right) = out.row_mut(r).split_at_mut(a.cols());
        left.copy_from_slice(a.row(r));
        right.copy_from_slice(b.row(r));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_scatter_are_adjoint() {
        // <gather(x, idx), y> == <x, scatter(y, idx)>
        let x = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32);
        let idx = vec![4u32, 0, 0, 2];
        let y = Matrix::from_fn(4, 3, |r, c| (r + c) as f32 * 0.5);
        let g = gather_rows(&x, &idx);
        let s = scatter_add_rows(&y, &idx, 5);
        let lhs: f64 = g
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(s.as_slice())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-6);
    }

    #[test]
    fn concat_shapes() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::full(3, 4, 1.0);
        let c = concat_cols(&a, &b);
        assert_eq!(c.shape(), (3, 6));
        assert_eq!(c.get(1, 0), 0.0);
        assert_eq!(c.get(1, 5), 1.0);
    }

    #[test]
    fn scale_rows_and_rowwise_dot() {
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let s = Matrix::from_vec(2, 1, vec![2., -1.]);
        let y = scale_rows(&x, &s);
        assert_eq!(y.as_slice(), &[2., 4., -3., -4.]);
        let d = rowwise_dot(&x, &y);
        assert_eq!(d.as_slice(), &[2. + 8., -9. - 16.]);
    }
}
