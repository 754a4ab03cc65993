//! Dense row-major `f32` matrix: the value every kernel reads and every
//! tape node holds, its serde, and its element-wise methods.
//!
//! All shapes are `(rows, cols)`. The kernels over it live by concern:
//! [`crate::gemm`] (matrix products), [`crate::rows`] (row
//! gather/scatter) and [`crate::softmax`] (the softmax family and graph
//! attention).

use serde::{Deserialize, Serialize};
use std::fmt;

// The benchmark suite under `crates/bench/src/bin/suite` is frozen and
// imports these four through this path; every other caller names
// `crate::gemm`.
pub use crate::gemm::{active_microkernel, matmul_nn, matmul_nt, matmul_tn};

/// Dense row-major matrix of `f32`.
#[derive(Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A [`Matrix`] as it arrives from a file, before its shape is checked.
#[derive(Deserialize)]
struct UncheckedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Matrices are read from `model.json` and checkpoints, which nothing
/// vouches for: a shape that disagrees with the payload is a decode
/// error here, not an out-of-bounds row access later.
impl Deserialize for Matrix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let UncheckedMatrix { rows, cols, data } = UncheckedMatrix::from_value(v)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(serde::DeError(format!(
                "matrix declares {rows}x{cols} but carries {} values",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 64 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", &self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a flat row-major buffer. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: shape/buffer mismatch");
        Matrix { rows, cols, data }
    }

    /// Build from a closure evaluated at each `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// A 1x1 matrix holding a scalar.
    pub fn scalar(v: f32) -> Self {
        Matrix::from_vec(1, 1, vec![v])
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at `(r, c)` (bounds-checked in debug builds only).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Overwrite the element at `(r, c)` (bounds-checked in debug builds
    /// only).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The value of a 1x1 matrix.
    pub fn item(&self) -> f32 {
        assert_eq!(self.shape(), (1, 1), "item() on non-scalar matrix");
        self.data[0]
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise combine with another matrix of identical shape.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other` element-wise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += *b;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sum of all elements (accumulated in f64 for stability).
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_rejects_a_shape_that_disagrees_with_the_payload() {
        let ok: Matrix = serde_json::from_str(r#"{"rows":2,"cols":1,"data":[1.0,2.0]}"#).unwrap();
        assert_eq!(ok.row(1), &[2.0]);
        for bad in [
            r#"{"rows":3,"cols":1,"data":[1.0,2.0]}"#,
            r#"{"rows":2,"cols":1,"data":[1.0,2.0,3.0]}"#,
            r#"{"rows":18446744073709551615,"cols":2,"data":[1.0,2.0]}"#,
            // (2^63 + 1) * 2 wraps to exactly 2, the payload's length
            r#"{"rows":9223372036854775809,"cols":2,"data":[1.0,2.0]}"#,
        ] {
            let err = serde_json::from_str::<Matrix>(bad).expect_err(bad);
            assert!(err.to_string().contains("matrix declares"), "{bad}: {err}");
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 7, |r, c| (r * 13 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn sum_mean_norm() {
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(x.sum(), 10.0);
        assert!((x.frobenius_norm() - 30.0f64.sqrt()).abs() < 1e-9);
    }
}
