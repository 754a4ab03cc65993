//! Dense row-major `f32` matrix with the raw kernels used by the autodiff
//! tape: matmul (all transpose variants), broadcasting adds, element-wise
//! maps, and segment (scatter/gather) operations for graph attention.
//!
//! All shapes are `(rows, cols)`.
//!
//! # Matmul design
//!
//! The three matmul variants (`nn`, `nt`, `tn`) share one cache-blocked
//! GEBP-style implementation (the private `gemm` driver), blocked for
//! the whole cache hierarchy:
//!
//! 1. **`jc`/[`NC`] column blocking.** The outermost loop walks B in
//!    slices of `NC` columns so the packed KC×NC slice stays
//!    L2-resident — without it the full packed B (4 MB at 1024²) is
//!    re-streamed per row block and throughput falls off past the L2
//!    size. `NC` is a multiple of every kernel's panel width.
//! 2. **Pack the B slice.** The slice is repacked into column panels of
//!    the active kernel's `NR`: `bpack[panel][kk][nr]`. Each of the
//!    three variants only differs in its packing loop, which absorbs
//!    the transpose — the hot loop never sees a stride.
//! 3. **[`KC`] k-blocking + row-split in parallel.** Within each KC
//!    slice the output rows are split across the persistent worker pool
//!    ([`crate::parallel::par_chunks_mut`]); the packed B is shared
//!    read-only by all workers.
//! 4. **Microkernel.** Each worker walks its rows in blocks of the
//!    kernel's `MR`, packs the corresponding A block (`apack[kk][mr]`,
//!    again absorbing the `tn` transpose), and computes an `MR`×`NR`
//!    register tile per B panel. Fringes are handled by zero-padding
//!    the packs and masking the write-back (the AVX-512 kernel masks
//!    loads/stores on C directly).
//!
//! # Microkernel dispatch
//!
//! The inner tile has three implementations behind one contract
//! (`acc += Ablock @ Bpanel` over packed operands), listed by
//! [`available_microkernels`] fastest-first and selected at runtime
//! with `is_x86_feature_detected!`:
//!
//! - **AVX-512** ([`MicrokernelKind::Avx512`]): 8×32 tile in 16 ZMM
//!   accumulators, masked loads/stores for row/column fringes.
//! - **AVX2+FMA** ([`MicrokernelKind::Avx2Fma`]): the 4×16 tile held in
//!   8 YMM accumulators, one broadcast + two FMAs per row per `kk`
//!   step, and software prefetch of the B panel.
//! - **Portable** ([`MicrokernelKind::Portable`]): `MR*NR` scalar
//!   accumulators that the auto-vectoriser keeps in vector registers.
//!   Always available.
//!
//! The two SIMD variants carry a proof value ([`Avx512`], [`Avx2Fma`])
//! whose only constructor is the runtime detection, and each SIMD kernel
//! takes its proof as an argument: a call that detection has not
//! licensed does not type-check.
//!
//! [`active_microkernel`] reports the calling thread's pick, and
//! [`force_microkernel`] returns an RAII guard pinning the thread to
//! any level (parity tests and A/B benchmarks).
//!
//! Every kernel accumulates each output element in a single register in
//! ascending-k order, so the two FMA kernels agree **bitwise** with
//! each other on any data; against portable they differ by at most the
//! FMA contraction (one rounding instead of two per multiply-add), so
//! results agree bitwise on integer data and to ~`sqrt(k)` ULP on
//! fractional data; see the `simd_matmul_matches_portable*` and
//! `fma_kernels_agree_*` parity tests.
//!
//! Packing scratch lives in thread-locals, so steady-state training does
//! not allocate per matmul call. Small products (`m*k*n < `[`TILE_THRESHOLD`])
//! skip packing entirely and use the naive ikj loops (`matmul_*_naive`),
//! which are also kept public as the reference implementation for the
//! parity property tests and as the benchmark baseline.

use crate::parallel::{par_chunks_mut, PAR_THRESHOLD};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

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

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
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

    /// Mean of all elements.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
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

/// Register-tile height of the portable and AVX2 tiles: rows of A per
/// microkernel invocation. The AVX-512 tile is deeper (see
/// [`MicrokernelKind::geometry`]).
pub const MR: usize = 4;
/// Register-tile width of the portable and AVX2 tiles: columns of B per
/// packed panel. The AVX-512 tile is wider (see
/// [`MicrokernelKind::geometry`]).
pub const NR: usize = 16;
/// Largest register-tile height across all microkernels (the AVX-512
/// tile is `8`×`32`); driver-side scratch is sized for this.
pub const MR_MAX: usize = 8;
/// Largest register-tile width across all microkernels.
pub const NR_MAX: usize = 32;
/// K-dimension block: the `KC`×`NR` B panel slice (16–32 KiB) and the
/// `KC`×`MR` A block (4–8 KiB) stay L1-resident inside the microkernel.
pub const KC: usize = 256;
/// N-dimension block (the GEBP `jc` loop): the driver walks the packed B
/// columns in `NC`-wide slices so one `KC`×`NC` slice (512 KiB at f32)
/// stays L2-resident while every row block of A streams against it.
/// Without this loop the whole packed B (4 MB at 1024²) is re-pulled from
/// L3 per `MR`-row block, which is exactly the ~60 → ~35 GFLOP/s falloff
/// the ROADMAP's "kernel ceiling" item describes. `NC` is a multiple of
/// every kernel's panel width, so panel boundaries never straddle a slice.
pub const NC: usize = 512;
/// Products with fewer than this many fused multiply-adds use the naive
/// loops; below it, packing costs more than it saves.
pub const TILE_THRESHOLD: usize = 16 * 16 * 16;

/// Which loop nest a product runs on. The two accumulate in different
/// orders, so their results differ in the last bit: an op that multiplies
/// a **row subset** of an operand and must keep the bits of the full
/// product picks the path from the full product's size
/// ([`crate::tape::Tape::score_xent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum GemmPath {
    /// The `matmul_*_naive` loops.
    Naive,
    /// The packed, tiled [`gemm`] driver.
    Tiled,
}

impl GemmPath {
    /// The path [`matmul_nn`], [`matmul_nt`] and [`matmul_tn`] take for an
    /// `m·k·n` product.
    pub(crate) fn for_product(m: usize, k: usize, n: usize) -> Self {
        if m * k * n < TILE_THRESHOLD {
            GemmPath::Naive
        } else {
            GemmPath::Tiled
        }
    }
}

thread_local! {
    /// Per-thread scratch for the packed B panels (caller side).
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread scratch for the packed A block (worker side).
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Take a thread-local scratch buffer. Take/put (instead of holding a
/// borrow across the computation) keeps this safe under the pool's
/// caller-helps policy, where a thread waiting in one gemm can execute an
/// unrelated task that itself enters gemm: the nested call simply finds an
/// empty buffer and allocates its own.
fn take_scratch(cell: &'static std::thread::LocalKey<RefCell<Vec<f32>>>) -> Vec<f32> {
    cell.with(|c| c.take())
}

fn put_scratch(cell: &'static std::thread::LocalKey<RefCell<Vec<f32>>>, buf: Vec<f32>) {
    cell.with(|c| {
        let mut slot = c.borrow_mut();
        if slot.capacity() < buf.capacity() {
            *slot = buf;
        }
    });
}

/// Which operand layout [`gemm`] reads its inputs in. `B` is always packed
/// by panel before the parallel region; `A` is packed per row-block inside
/// the microkernel driver, so the transpose variants differ only in their
/// packing loops.
#[derive(Clone, Copy)]
enum Layout {
    /// Operand is stored row-major in its mathematical orientation.
    RowMajor,
    /// Operand is stored transposed (`nt` for B, `tn` for A).
    Transposed,
}

/// Pack the B operand into `nr`-wide column panels (the active kernel's
/// panel width), zero-padding the last panel:
/// `bpack[p * k * nr + kk * nr + j] = B[kk, p*nr + j]`.
fn pack_b(b: &[f32], k: usize, n: usize, layout: Layout, nr: usize, out: &mut Vec<f32>) {
    let panels = n.div_ceil(nr);
    out.clear();
    out.resize(panels * k * nr, 0.0);
    match layout {
        Layout::RowMajor => {
            // b is (k, n) row-major
            for kk in 0..k {
                let src = &b[kk * n..(kk + 1) * n];
                for p in 0..panels {
                    let j0 = p * nr;
                    let width = nr.min(n - j0);
                    let dst = &mut out[p * k * nr + kk * nr..p * k * nr + kk * nr + width];
                    dst.copy_from_slice(&src[j0..j0 + width]);
                }
            }
        }
        Layout::Transposed => {
            // b is (n, k) row-major; output column j is b row j
            for p in 0..panels {
                let j0 = p * nr;
                let width = nr.min(n - j0);
                let panel = &mut out[p * k * nr..(p + 1) * k * nr];
                for j in 0..width {
                    let src = &b[(j0 + j) * k..(j0 + j + 1) * k];
                    for (kk, &v) in src.iter().enumerate() {
                        panel[kk * nr + j] = v;
                    }
                }
            }
        }
    }
}

/// Pack an `mr`-row block of A (rows `r0..r0+rows`, inner indices
/// `k0..k0+klen`) for the active kernel's tile height, zero-padding to
/// `mr`: `apack[kk * mr + i] = A[r0 + i, k0 + kk]`.
///
/// `lead` is the leading dimension of the stored buffer: for `RowMajor`
/// (A is `(m, k)`) it is `k`; for `Transposed` (A stored `(k, m)`) it is
/// `m`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn pack_a_block(
    a: &[f32],
    r0: usize,
    rows: usize,
    k0: usize,
    klen: usize,
    lead: usize,
    layout: Layout,
    mr: usize,
    out: &mut [f32],
) {
    debug_assert!(rows <= mr && out.len() >= klen * mr);
    match layout {
        Layout::RowMajor => {
            for i in 0..mr {
                if i < rows {
                    let src = &a[(r0 + i) * lead + k0..(r0 + i) * lead + k0 + klen];
                    for (kk, &v) in src.iter().enumerate() {
                        out[kk * mr + i] = v;
                    }
                } else {
                    for kk in 0..klen {
                        out[kk * mr + i] = 0.0;
                    }
                }
            }
        }
        Layout::Transposed => {
            // a stored (k, m): row kk holds A[kk, :]; the mr block is a
            // contiguous slice of each stored row.
            for kk in 0..klen {
                let src = &a[(k0 + kk) * lead + r0..(k0 + kk) * lead + r0 + rows];
                let dst = &mut out[kk * mr..kk * mr + mr];
                dst[..rows].copy_from_slice(src);
                dst[rows..].fill(0.0);
            }
        }
    }
}

/// The portable `MR`×`NR` register-tile microkernel: `acc += Ablock @
/// Bpanel` over the full `k` extent. With `MR`/`NR` constant the compiler
/// unrolls the inner pair of loops into vector code with `acc` held in
/// registers. This is the reference tile the SIMD path is parity-tested
/// against, and the fallback wherever AVX2+FMA is unavailable.
#[inline(always)]
pub fn microkernel(k: usize, apack: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(apack.len() >= k * MR && bpanel.len() >= k * NR);
    for kk in 0..k {
        let a = &apack[kk * MR..kk * MR + MR];
        let b = &bpanel[kk * NR..kk * NR + NR];
        for mr in 0..MR {
            let av = a[mr];
            for nr in 0..NR {
                acc[mr][nr] += av * b[nr];
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! Explicit AVX2+FMA implementation of the GEBP inner tile.
    //!
    //! The register layout is fixed to the crate's `MR = 4` × `NR = 16`
    //! packing (compile-time asserted below): 8 YMM accumulators (4 rows ×
    //! 2 halves of 8 `f32` lanes), 2 B-row loads and 4 A broadcasts per
    //! `kk` step. That is 11 live YMM registers, comfortably inside the 16
    //! architectural ones, and the 8 FMAs per step keep both FMA ports
    //! busy once the loop is warm.

    use super::{Avx2Fma, MR, NR};
    use std::arch::x86_64::*;

    // The unrolled body below is written for exactly this tile shape.
    const _: () = assert!(MR == 4 && NR == 16, "avx2 microkernel is 4x16");

    /// Software-prefetch distance in `kk` steps: 8 steps × 64 B per packed
    /// B row = 8 cache lines ahead of the load stream.
    const PREFETCH_K: usize = 8;

    /// AVX2+FMA microkernel; same contract as the portable
    /// [`super::microkernel`]. FMA contracts each multiply-add to a single
    /// rounding, so outputs may differ from the portable tile by a few ULP
    /// (bounded by the accumulation length; see the parity proptests).
    ///
    /// # Safety
    /// The caller must guarantee `apack.len() >= k * MR` and
    /// `bpanel.len() >= k * NR`. CPU support is not the caller's to
    /// promise: `_isa` exists only if detection saw `avx2` and `fma`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn microkernel(
        _isa: Avx2Fma,
        k: usize,
        apack: &[f32],
        bpanel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        debug_assert!(apack.len() >= k * MR && bpanel.len() >= k * NR);
        // SAFETY: every load below reads `a`/`b` at an offset below
        // `k * MR` / `k * NR`, inside the slices by the caller's
        // guarantee; `acc` rows are `NR = 16` floats, two 8-lane halves.
        unsafe {
            let a = apack.as_ptr();
            let b = bpanel.as_ptr();
            let mut c00 = _mm256_loadu_ps(acc[0].as_ptr());
            let mut c01 = _mm256_loadu_ps(acc[0].as_ptr().add(8));
            let mut c10 = _mm256_loadu_ps(acc[1].as_ptr());
            let mut c11 = _mm256_loadu_ps(acc[1].as_ptr().add(8));
            let mut c20 = _mm256_loadu_ps(acc[2].as_ptr());
            let mut c21 = _mm256_loadu_ps(acc[2].as_ptr().add(8));
            let mut c30 = _mm256_loadu_ps(acc[3].as_ptr());
            let mut c31 = _mm256_loadu_ps(acc[3].as_ptr().add(8));
            let mut kk = 0usize;
            while kk + 2 <= k {
                // Prefetching past the end of the panel is harmless at the
                // hardware level; wrapping_add keeps the address computation
                // itself free of out-of-bounds-pointer UB.
                _mm_prefetch(
                    b.wrapping_add((kk + PREFETCH_K) * NR) as *const i8,
                    _MM_HINT_T0,
                );
                let b0 = _mm256_loadu_ps(b.add(kk * NR));
                let b1 = _mm256_loadu_ps(b.add(kk * NR + 8));
                let a0 = _mm256_broadcast_ss(&*a.add(kk * MR));
                c00 = _mm256_fmadd_ps(a0, b0, c00);
                c01 = _mm256_fmadd_ps(a0, b1, c01);
                let a1 = _mm256_broadcast_ss(&*a.add(kk * MR + 1));
                c10 = _mm256_fmadd_ps(a1, b0, c10);
                c11 = _mm256_fmadd_ps(a1, b1, c11);
                let a2 = _mm256_broadcast_ss(&*a.add(kk * MR + 2));
                c20 = _mm256_fmadd_ps(a2, b0, c20);
                c21 = _mm256_fmadd_ps(a2, b1, c21);
                let a3 = _mm256_broadcast_ss(&*a.add(kk * MR + 3));
                c30 = _mm256_fmadd_ps(a3, b0, c30);
                c31 = _mm256_fmadd_ps(a3, b1, c31);
                let b0 = _mm256_loadu_ps(b.add((kk + 1) * NR));
                let b1 = _mm256_loadu_ps(b.add((kk + 1) * NR + 8));
                let a0 = _mm256_broadcast_ss(&*a.add((kk + 1) * MR));
                c00 = _mm256_fmadd_ps(a0, b0, c00);
                c01 = _mm256_fmadd_ps(a0, b1, c01);
                let a1 = _mm256_broadcast_ss(&*a.add((kk + 1) * MR + 1));
                c10 = _mm256_fmadd_ps(a1, b0, c10);
                c11 = _mm256_fmadd_ps(a1, b1, c11);
                let a2 = _mm256_broadcast_ss(&*a.add((kk + 1) * MR + 2));
                c20 = _mm256_fmadd_ps(a2, b0, c20);
                c21 = _mm256_fmadd_ps(a2, b1, c21);
                let a3 = _mm256_broadcast_ss(&*a.add((kk + 1) * MR + 3));
                c30 = _mm256_fmadd_ps(a3, b0, c30);
                c31 = _mm256_fmadd_ps(a3, b1, c31);
                kk += 2;
            }
            if kk < k {
                let b0 = _mm256_loadu_ps(b.add(kk * NR));
                let b1 = _mm256_loadu_ps(b.add(kk * NR + 8));
                let a0 = _mm256_broadcast_ss(&*a.add(kk * MR));
                c00 = _mm256_fmadd_ps(a0, b0, c00);
                c01 = _mm256_fmadd_ps(a0, b1, c01);
                let a1 = _mm256_broadcast_ss(&*a.add(kk * MR + 1));
                c10 = _mm256_fmadd_ps(a1, b0, c10);
                c11 = _mm256_fmadd_ps(a1, b1, c11);
                let a2 = _mm256_broadcast_ss(&*a.add(kk * MR + 2));
                c20 = _mm256_fmadd_ps(a2, b0, c20);
                c21 = _mm256_fmadd_ps(a2, b1, c21);
                let a3 = _mm256_broadcast_ss(&*a.add(kk * MR + 3));
                c30 = _mm256_fmadd_ps(a3, b0, c30);
                c31 = _mm256_fmadd_ps(a3, b1, c31);
            }
            _mm256_storeu_ps(acc[0].as_mut_ptr(), c00);
            _mm256_storeu_ps(acc[0].as_mut_ptr().add(8), c01);
            _mm256_storeu_ps(acc[1].as_mut_ptr(), c10);
            _mm256_storeu_ps(acc[1].as_mut_ptr().add(8), c11);
            _mm256_storeu_ps(acc[2].as_mut_ptr(), c20);
            _mm256_storeu_ps(acc[2].as_mut_ptr().add(8), c21);
            _mm256_storeu_ps(acc[3].as_mut_ptr(), c30);
            _mm256_storeu_ps(acc[3].as_mut_ptr().add(8), c31);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! Explicit AVX-512F implementation of the GEBP inner tile.
    //!
    //! The tile is `8`×`32`: 16 ZMM accumulators (8 rows × 2 vectors of
    //! 16 `f32` lanes), 2 B-row loads and 8 A broadcasts per `kk` step —
    //! 19 live ZMM registers of the 32 architectural ones. Unlike the
    //! AVX2 path (which accumulates into a caller-held scratch tile),
    //! this kernel reads and writes the output tile directly with
    //! **masked** loads/stores, so row and column fringes never take a
    //! scalar copy loop: a `width`-column fringe is two `__mmask16`
    //! masks, a `rows`-row fringe just skips the trailing row transfers
    //! (padded A rows still compute, against zeros).
    //!
    //! Per output element the accumulation is one FMA per `kk` in
    //! ascending order — the **same** single-rounding sequence as the
    //! AVX2 kernel — so for identical blocking the two produce
    //! bit-identical results (asserted by the cross-ISA proptests).

    use super::{Avx512, MR_MAX, NR_MAX};
    use std::arch::x86_64::*;

    // The body below is written for exactly this tile shape.
    const _: () = assert!(MR_MAX == 8 && NR_MAX == 32, "avx512 microkernel is 8x32");

    /// Software-prefetch distance in `kk` steps (128 B of packed B per
    /// step = 2 cache lines, so this runs 16 lines ahead).
    const PREFETCH_K: usize = 8;

    /// Compute one `rows`×`width` output tile: `C[.., ..] += Ablock @
    /// Bpanel` over `k` inner steps, where `c` points at the tile's
    /// top-left element inside a row-major buffer with leading dimension
    /// `ldc`. When `first_k` is set the accumulators start at zero
    /// instead of loading `C` (the `k0 == 0` block of the driver).
    ///
    /// # Safety
    /// The caller must guarantee `apack.len() >= k * MR_MAX`,
    /// `bpanel.len() >= k * NR_MAX`, and that `c` addresses `rows` rows
    /// of at least `width` valid elements at stride `ldc`. CPU support is
    /// not the caller's to promise: `_isa` exists only if detection saw
    /// `avx512f`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn run_tile(
        _isa: Avx512,
        k: usize,
        apack: &[f32],
        bpanel: &[f32],
        c: *mut f32,
        ldc: usize,
        rows: usize,
        width: usize,
        first_k: bool,
    ) {
        debug_assert!(apack.len() >= k * MR_MAX && bpanel.len() >= k * NR_MAX);
        debug_assert!(rows <= MR_MAX && width <= NR_MAX);
        let m0: __mmask16 = ((1u32 << width.min(16)) - 1) as __mmask16;
        let m1: __mmask16 = if width > 16 {
            ((1u32 << (width - 16)) - 1) as __mmask16
        } else {
            0
        };
        // SAFETY: `a`/`b` are read below `k * MR_MAX` / `k * NR_MAX`,
        // inside the packs by the caller's guarantee; `c` is only touched
        // on the first `rows` rows through the `width`-column masks.
        unsafe {
            let zero = _mm512_setzero_ps();
            let mut acc = [[zero; 2]; MR_MAX];
            if !first_k {
                for (r, acc_row) in acc.iter_mut().enumerate().take(rows) {
                    acc_row[0] = _mm512_maskz_loadu_ps(m0, c.add(r * ldc));
                    acc_row[1] = _mm512_maskz_loadu_ps(m1, c.add(r * ldc + 16));
                }
            }
            let a = apack.as_ptr();
            let b = bpanel.as_ptr();
            for kk in 0..k {
                // Prefetching past the end of the panel is harmless at the
                // hardware level; wrapping_add keeps the address computation
                // itself free of out-of-bounds-pointer UB.
                _mm_prefetch(
                    b.wrapping_add((kk + PREFETCH_K) * NR_MAX) as *const i8,
                    _MM_HINT_T0,
                );
                let b0 = _mm512_loadu_ps(b.add(kk * NR_MAX));
                let b1 = _mm512_loadu_ps(b.add(kk * NR_MAX + 16));
                for (r, acc_row) in acc.iter_mut().enumerate() {
                    let ar = _mm512_set1_ps(*a.add(kk * MR_MAX + r));
                    acc_row[0] = _mm512_fmadd_ps(ar, b0, acc_row[0]);
                    acc_row[1] = _mm512_fmadd_ps(ar, b1, acc_row[1]);
                }
            }
            for (r, acc_row) in acc.iter().enumerate().take(rows) {
                _mm512_mask_storeu_ps(c.add(r * ldc), m0, acc_row[0]);
                _mm512_mask_storeu_ps(c.add(r * ldc + 16), m1, acc_row[1]);
            }
        }
    }
}

pub use isa::{Avx2Fma, Avx512};

mod isa {
    //! Proofs of CPU capability. Each is a zero-sized value with a
    //! private field, so the one way to hold one is to have called its
    //! `detect` on this CPU — nothing outside this module, not even the
    //! rest of `matrix.rs`, can write the constructor.

    /// Proof that the running CPU executes AVX2 and FMA: the argument the
    /// 4×16 kernel cannot be called without.
    ///
    /// ```
    /// let proof: Option<tg_tensor::matrix::Avx2Fma> = tg_tensor::matrix::Avx2Fma::detect();
    /// # let _ = proof;
    /// ```
    ///
    /// ```compile_fail
    /// // no constructor but `detect`
    /// let forged = tg_tensor::matrix::Avx2Fma(());
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Avx2Fma(());

    impl Avx2Fma {
        /// `Some` iff the CPU reports both `avx2` and `fma` (`None` off
        /// `x86_64`). The standard library caches the probe.
        pub fn detect() -> Option<Self> {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return Some(Avx2Fma(()));
            }
            None
        }
    }

    /// Proof that the running CPU executes AVX-512F: the argument the
    /// 8×32 kernel cannot be called without.
    ///
    /// ```compile_fail
    /// // no constructor but `detect`
    /// let forged = tg_tensor::matrix::Avx512(());
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Avx512(());

    impl Avx512 {
        /// `Some` iff the CPU reports `avx512f` (`None` off `x86_64`).
        pub fn detect() -> Option<Self> {
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx512f") {
                return Some(Avx512(()));
            }
            None
        }
    }
}

/// Microkernel implementations the GEBP driver can dispatch to. A SIMD
/// variant holds the proof that this CPU runs it, so a value of this
/// type always names a kernel that can execute here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MicrokernelKind {
    /// The auto-vectorised scalar tile ([`microkernel`]). Always available
    /// and the only option off `x86_64`.
    Portable,
    /// Explicit AVX2+FMA intrinsics (4×16 tile) with software prefetch;
    /// selected at runtime when the CPU reports both features.
    Avx2Fma(Avx2Fma),
    /// Explicit AVX-512F intrinsics (8×32 tile, masked fringes); preferred
    /// over AVX2 when the CPU reports `avx512f`.
    Avx512(Avx512),
}

impl MicrokernelKind {
    /// Short stable name for logs and bench snapshots.
    pub fn name(self) -> &'static str {
        match self {
            MicrokernelKind::Portable => "portable",
            MicrokernelKind::Avx2Fma(_) => "avx2_fma",
            MicrokernelKind::Avx512(_) => "avx512",
        }
    }

    /// Register-tile geometry `(mr, nr)` of this kernel: A rows per
    /// microkernel invocation × packed-B panel width. The driver packs
    /// both operands to match the **active** kernel's geometry.
    pub fn geometry(self) -> (usize, usize) {
        match self {
            MicrokernelKind::Portable | MicrokernelKind::Avx2Fma(_) => (MR, NR),
            MicrokernelKind::Avx512(_) => (MR_MAX, NR_MAX),
        }
    }
}

/// Every microkernel the running CPU can execute, fastest first — the
/// order [`active_microkernel`] prefers them in. The list always ends
/// with [`MicrokernelKind::Portable`], so a per-ISA parity sweep over it
/// (the CI bench-smoke does one) necessarily exercises the portable
/// fallback path.
pub fn available_microkernels() -> Vec<MicrokernelKind> {
    let mut kinds = Vec::with_capacity(3);
    kinds.extend(Avx512::detect().map(MicrokernelKind::Avx512));
    kinds.extend(Avx2Fma::detect().map(MicrokernelKind::Avx2Fma));
    kinds.push(MicrokernelKind::Portable);
    kinds
}

thread_local! {
    /// Per-thread dispatch override installed by [`force_microkernel`].
    static FORCED_KERNEL: std::cell::Cell<Option<MicrokernelKind>> =
        const { std::cell::Cell::new(None) };
}

/// Which microkernel [`matmul_nn`]/[`matmul_nt`]/[`matmul_tn`] dispatch
/// to on **this thread** right now: a [`force_microkernel`] override if
/// one is in scope, else the best kernel the CPU supports. Feature
/// detection is cached by the standard library, so this is cheap enough
/// to consult per `gemm` call.
///
/// `gemm` resolves the kernel once on the calling thread and the pool
/// workers inherit that choice, so a thread-local override covers the
/// whole parallel computation it scopes.
pub fn active_microkernel() -> MicrokernelKind {
    if let Some(kind) = FORCED_KERNEL.with(|c| c.get()) {
        return kind;
    }
    if let Some(isa) = Avx512::detect() {
        return MicrokernelKind::Avx512(isa);
    }
    if let Some(isa) = Avx2Fma::detect() {
        return MicrokernelKind::Avx2Fma(isa);
    }
    MicrokernelKind::Portable
}

/// Scoped dispatch override for A/B benchmarking and the kernel-parity
/// tests: while the returned guard lives, [`active_microkernel`] on this
/// thread reports `kind`; dropping the guard restores whatever was in
/// effect before (guards nest). The override is **thread-local**, so a
/// parity test pinning the portable kernel cannot leak its choice into
/// concurrently running tests — the leak the old process-global
/// set/unset hook permitted.
///
/// Any `kind` can be forced: a SIMD variant cannot be built on a CPU
/// that lacks it (take the levels to sweep from
/// [`available_microkernels`]).
#[must_use = "the override ends when the guard is dropped"]
pub fn force_microkernel(kind: MicrokernelKind) -> ForceMicrokernelGuard {
    let prev = FORCED_KERNEL.with(|c| c.replace(Some(kind)));
    ForceMicrokernelGuard {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

/// RAII guard of a [`force_microkernel`] override; restores the previous
/// dispatch state (panic-safe) when dropped.
#[derive(Debug)]
pub struct ForceMicrokernelGuard {
    prev: Option<MicrokernelKind>,
    /// `!Send`: the override lives in this thread's slot; restoring it
    /// from another thread would unwind the wrong state.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ForceMicrokernelGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        FORCED_KERNEL.with(|c| c.set(prev));
    }
}

/// Shared tiled GEMM driver: `out = opA(A) @ opB(B)` with `out` of shape
/// `(m, n)` and inner dimension `k`. Packs B once in the active kernel's
/// panel geometry, then splits output rows across the worker pool; each
/// worker walks the full GEBP loop nest `jc (NC) → k0 (KC) → row block
/// (mr) → panel (nr)` over its rows.
///
/// Per output element the accumulation order is: ascending `k0` blocks,
/// one `f32` store/reload of the partial between blocks, one FMA (or
/// mul+add on the portable tile) per `kk` inside a block. That order is
/// invariant under the `jc`/`NC` blocking — elements are independent and
/// each still sees exactly the same arithmetic sequence — so adding the
/// NC loop changed no bits of any result (parity-proptested).
#[allow(clippy::too_many_arguments)]
fn gemm(
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // an empty sum; the loop nest below would leave `out` as it found it
        out.fill(0.0);
        return;
    }
    let a_lead = match a_layout {
        Layout::RowMajor => k,
        Layout::Transposed => m,
    };
    // Resolve the microkernel once per call; the workers inherit the copy
    // (so a thread-local force_microkernel override on the caller covers
    // the whole parallel region), and the packing matches its geometry.
    let kernel = active_microkernel();
    let (mr, nr) = kernel.geometry();
    let mut pb = take_scratch(&PACK_B);
    pack_b(b, k, n, b_layout, nr, &mut pb);
    let bpack: &[f32] = &pb;
    let body = |r0: usize, chunk: &mut [f32]| {
        let rows_here = chunk.len() / n;
        let mut pa = take_scratch(&PACK_A);
        pa.clear();
        pa.resize(KC.min(k) * mr, 0.0);
        // jc/NC outer loop: one KC×NC slice of packed B (512 KiB) stays
        // L2-resident while every row block below streams against it.
        // The A block is repacked once per (jc, k0) pass — O(m·k·n/NC)
        // extra packing work, noise against the O(m·k·n) FMAs it buys
        // L2-resident B for.
        let mut jc = 0usize;
        while jc < n {
            let jcw = NC.min(n - jc);
            let mut k0 = 0usize;
            while k0 < k {
                let klen = KC.min(k - k0);
                let mut i0 = 0usize;
                while i0 < rows_here {
                    let rows = mr.min(rows_here - i0);
                    pack_a_block(a, r0 + i0, rows, k0, klen, a_lead, a_layout, mr, &mut pa);
                    let mut j0 = jc;
                    while j0 < jc + jcw {
                        let width = nr.min(n - j0);
                        // jc is NC-aligned and NC % nr == 0, so panel
                        // boundaries never straddle a jc slice.
                        let p = j0 / nr;
                        let bpanel = &bpack[p * k * nr + k0 * nr..p * k * nr + (k0 + klen) * nr];
                        match kernel {
                            #[cfg(target_arch = "x86_64")]
                            // SAFETY: the tile pointer addresses `rows`
                            // rows of `width` valid elements at stride n,
                            // and the pack lengths are maintained above.
                            MicrokernelKind::Avx512(isa) => unsafe {
                                avx512::run_tile(
                                    isa,
                                    klen,
                                    &pa,
                                    bpanel,
                                    chunk[i0 * n + j0..].as_mut_ptr(),
                                    n,
                                    rows,
                                    width,
                                    k0 == 0,
                                )
                            },
                            _ => {
                                let mut acc = [[0.0f32; NR]; MR];
                                if k0 > 0 {
                                    for r in 0..rows {
                                        let src =
                                            &chunk[(i0 + r) * n + j0..(i0 + r) * n + j0 + width];
                                        acc[r][..width].copy_from_slice(src);
                                    }
                                }
                                match kernel {
                                    #[cfg(target_arch = "x86_64")]
                                    // SAFETY: pack lengths are maintained
                                    // above.
                                    MicrokernelKind::Avx2Fma(isa) => unsafe {
                                        avx2::microkernel(isa, klen, &pa, bpanel, &mut acc)
                                    },
                                    _ => microkernel(klen, &pa, bpanel, &mut acc),
                                }
                                for r in 0..rows {
                                    let dst =
                                        &mut chunk[(i0 + r) * n + j0..(i0 + r) * n + j0 + width];
                                    dst.copy_from_slice(&acc[r][..width]);
                                }
                            }
                        }
                        j0 += nr;
                    }
                    i0 += rows;
                }
                k0 += klen;
            }
            jc += jcw;
        }
        put_scratch(&PACK_A, pa);
    };
    if m * k * n >= PAR_THRESHOLD {
        par_chunks_mut(out, n, body);
    } else {
        body(0, out);
    }
    put_scratch(&PACK_B, pb);
}

/// Naive ikj-ordered `C = A @ B` — reference kernel for the parity tests
/// and the baseline the tiled path is benchmarked against.
pub fn matmul_nn_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    matmul_nn_naive_into(a, b, &mut out.data);
    out
}

fn matmul_nn_naive_into(a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    out.fill(0.0);
    for r in 0..m {
        let out_row = &mut out[r * n..(r + 1) * n];
        let a_row = &a.data[r * k..(r + 1) * k];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b.data[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Naive dot-product `C = A @ B^T` — reference kernel for the parity tests.
pub fn matmul_nt_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.rows);
    matmul_nt_naive_into(a, b, &mut out.data);
    out
}

fn matmul_nt_naive_into(a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let (m, k, n) = (a.rows, a.cols, b.rows);
    for r in 0..m {
        let a_row = &a.data[r * k..(r + 1) * k];
        let out_row = &mut out[r * n..(r + 1) * n];
        for (c, o) in out_row.iter_mut().enumerate() {
            let b_row = &b.data[c * k..(c + 1) * k];
            let mut acc = 0.0f32;
            for (&x, &y) in a_row.iter().zip(b_row) {
                acc += x * y;
            }
            *o = acc;
        }
    }
}

/// Naive k-outer `C = A^T @ B` — reference kernel for the parity tests.
pub fn matmul_tn_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols, b.cols);
    matmul_tn_naive_into(a, b, &mut out.data);
    out
}

fn matmul_tn_naive_into(a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let (k, m, n) = (a.rows, a.cols, b.cols);
    out.fill(0.0);
    // out[r, c] = sum_k a[k, r] * b[k, c]; iterate k outer for contiguity.
    for kk in 0..k {
        let a_row = &a.data[kk * m..(kk + 1) * m];
        let b_row = &b.data[kk * n..(kk + 1) * n];
        for (r, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[r * n..(r + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// `C = A @ B`. Shapes: `(m,k) @ (k,n) -> (m,n)`.
pub fn matmul_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    let path = GemmPath::for_product(a.rows, a.cols, b.cols);
    matmul_nn_into_on(path, a, b, &mut out);
    out
}

/// [`matmul_nn`] into a pre-shaped output, on a loop nest the caller chose.
pub(crate) fn matmul_nn_into_on(path: GemmPath, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols,
        b.rows,
        "matmul_nn: inner dim mismatch {:?} @ {:?}",
        a.shape(),
        b.shape()
    );
    assert_eq!(
        out.shape(),
        (a.rows, b.cols),
        "matmul_nn_into_on: bad output shape"
    );
    let (m, k, n) = (a.rows, a.cols, b.cols);
    if n == 1 {
        return matvec(path, &a.data, &b.data, &mut out.data);
    }
    match path {
        GemmPath::Naive => matmul_nn_naive_into(a, b, &mut out.data),
        GemmPath::Tiled => gemm(
            &mut out.data,
            m,
            k,
            n,
            &a.data,
            Layout::RowMajor,
            &b.data,
            Layout::RowMajor,
        ),
    }
}

/// `out = A b` for a one-column `b` (`a` is `out.len() × b.len()`,
/// row-major) with the bits of the loop nest `path` names, which spends
/// its time elsewhere at this shape: the naive loops run one
/// latency-bound chain per row, the tiled driver packs a panel of
/// [`NR`] or more columns to use one.
///
/// An output element is one accumulation chain over ascending `k` from
/// zero on either path, so only the step differs: the naive loops skip a
/// zero `a` and multiply then add; the AVX2 and AVX-512 tiles fuse the two
/// (`f32::mul_add` rounds once, as `vfmadd` does — and the driver's
/// store/reload of a partial sum between [`KC`] blocks changes no value);
/// the portable tile multiplies then adds.
fn matvec(path: GemmPath, a: &[f32], b: &[f32], out: &mut [f32]) {
    match (path, active_microkernel()) {
        (GemmPath::Naive, _) => matvec_rows(
            a,
            b,
            out,
            |acc, av, bv| {
                if av == 0.0 {
                    acc
                } else {
                    acc + av * bv
                }
            },
        ),
        (GemmPath::Tiled, MicrokernelKind::Portable) => {
            matvec_rows(a, b, out, |acc, av, bv| acc + av * bv)
        }
        (GemmPath::Tiled, MicrokernelKind::Avx2Fma(_) | MicrokernelKind::Avx512(_)) => {
            matvec_rows(a, b, out, |acc, av, bv| av.mul_add(bv, acc))
        }
    }
}

/// [`matvec`]'s row walk: `out[r] = fold(step, 0, a[r, ..] · b)` with
/// eight rows' chains in flight, so the adds of one row overlap the
/// others' instead of waiting on each other.
#[inline(always)]
fn matvec_rows(a: &[f32], b: &[f32], out: &mut [f32], step: impl Fn(f32, f32, f32) -> f32) {
    const CHAINS: usize = 8;
    let k = b.len();
    assert_eq!(a.len(), out.len() * k, "matvec: operand shapes");
    if k == 0 {
        return out.fill(0.0);
    }
    let mut blocks = out.chunks_exact_mut(CHAINS);
    let mut a_blocks = a.chunks_exact(CHAINS * k);
    for (block, rows) in (&mut blocks).zip(&mut a_blocks) {
        let rows: [&[f32]; CHAINS] = std::array::from_fn(|i| &rows[i * k..][..k]);
        let mut acc = [0.0f32; CHAINS];
        for (kk, &bv) in b.iter().enumerate() {
            for (acc, row) in acc.iter_mut().zip(&rows) {
                *acc = step(*acc, row[kk], bv);
            }
        }
        block.copy_from_slice(&acc);
    }
    let tail = blocks.into_remainder().iter_mut();
    for (o, row) in tail.zip(a_blocks.remainder().chunks_exact(k)) {
        *o = row
            .iter()
            .zip(b)
            .fold(0.0, |acc, (&av, &bv)| step(acc, av, bv));
    }
}

/// `C = A @ B^T`. Shapes: `(m,k) @ (n,k)^T -> (m,n)`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.rows);
    let path = GemmPath::for_product(a.rows, a.cols, b.rows);
    matmul_nt_into_on(path, a, b, &mut out);
    out
}

/// [`matmul_nt`] into a pre-shaped output, on a loop nest the caller chose.
pub(crate) fn matmul_nt_into_on(path: GemmPath, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.cols,
        b.cols,
        "matmul_nt: inner dim mismatch {:?} @ {:?}^T",
        a.shape(),
        b.shape()
    );
    assert_eq!(
        out.shape(),
        (a.rows, b.rows),
        "matmul_nt_into_on: bad output shape"
    );
    let (m, k, n) = (a.rows, a.cols, b.rows);
    match path {
        GemmPath::Naive => matmul_nt_naive_into(a, b, &mut out.data),
        GemmPath::Tiled => gemm(
            &mut out.data,
            m,
            k,
            n,
            &a.data,
            Layout::RowMajor,
            &b.data,
            Layout::Transposed,
        ),
    }
}

/// `C = A^T @ B`. Shapes: `(k,m)^T @ (k,n) -> (m,n)`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols, b.cols);
    let path = GemmPath::for_product(a.cols, a.rows, b.cols);
    matmul_tn_into_on(path, a, b, &mut out);
    out
}

/// [`matmul_tn`] into a pre-shaped output, on a loop nest the caller chose.
pub(crate) fn matmul_tn_into_on(path: GemmPath, a: &Matrix, b: &Matrix, out: &mut Matrix) {
    assert_eq!(
        a.rows,
        b.rows,
        "matmul_tn: inner dim mismatch {:?}^T @ {:?}",
        a.shape(),
        b.shape()
    );
    assert_eq!(
        out.shape(),
        (a.cols, b.cols),
        "matmul_tn_into_on: bad output shape"
    );
    let (k, m, n) = (a.rows, a.cols, b.cols);
    match path {
        GemmPath::Naive => matmul_tn_naive_into(a, b, &mut out.data),
        GemmPath::Tiled => gemm(
            &mut out.data,
            m,
            k,
            n,
            &a.data,
            Layout::Transposed,
            &b.data,
            Layout::RowMajor,
        ),
    }
}

/// Row-gather: `out[i, :] = x[idx[i], :]`.
pub fn gather_rows(x: &Matrix, idx: &[u32]) -> Matrix {
    let cols = x.cols;
    let mut out = Matrix::zeros(idx.len(), cols);
    for (i, &r) in idx.iter().enumerate() {
        let r = r as usize;
        debug_assert!(
            r < x.rows,
            "gather_rows: index {} out of {} rows",
            r,
            x.rows
        );
        out.data[i * cols..(i + 1) * cols].copy_from_slice(&x.data[r * cols..(r + 1) * cols]);
    }
    out
}

/// Row-scatter-add: `out[idx[i], :] += x[i, :]` into a zero matrix with
/// `out_rows` rows. Inverse (adjoint) of [`gather_rows`].
pub fn scatter_add_rows(x: &Matrix, idx: &[u32], out_rows: usize) -> Matrix {
    assert_eq!(x.rows, idx.len(), "scatter_add_rows: row/index mismatch");
    let cols = x.cols;
    let mut out = Matrix::zeros(out_rows, cols);
    for (i, &r) in idx.iter().enumerate() {
        let r = r as usize;
        debug_assert!(r < out_rows);
        let dst = &mut out.data[r * cols..(r + 1) * cols];
        let src = &x.data[i * cols..(i + 1) * cols];
        for (d, s) in dst.iter_mut().zip(src) {
            *d += *s;
        }
    }
    out
}

/// Fast `e^x` for `f32`: range-reduced `2^z` with a degree-7 polynomial
/// for the fraction, evaluated in FMAs that the compiler auto-vectorises
/// (unlike libm's `expf`, which is an opaque scalar call in every softmax
/// inner loop). Relative error is ≤ ~2e-6 over the clamped domain
/// `[-87.3, 88.7]`; inputs outside saturate to 0 / f32::MAX-ish rather
/// than overflowing the bit trick. NaN inputs return NaN (softmax on NaN
/// logits is already meaningless; callers guard with `has_non_finite`).
///
/// The exponent is converted float→int without a cast: `zf as i32`
/// saturates, and that scalar-only check kept LLVM from vectorising any
/// loop that calls this. After the clamp, `zf` is a whole number in
/// `[-126, 127]`, so `zf + 1.5·2²³` lands in `[2²³, 2²⁴)` where the `f32`
/// spacing is exactly 1: the addition is exact and the sum's bit pattern
/// is `0x4B40_0000 + zf` as an integer. Subtracting the magic's own bits
/// therefore yields `zf` — the same value the cast produced — for every
/// finite input, with plain integer ops that vectorise.
#[inline(always)]
pub fn fast_exp(x: f32) -> f32 {
    /// `1.5 · 2²³`, whose bit pattern is `MAGIC_BITS`.
    const MAGIC: f32 = 12_582_912.0;
    const MAGIC_BITS: i32 = 0x4B40_0000;
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    // ln(2)^k / k! for the Taylor expansion of 2^f = e^(f ln 2)
    const C1: f32 = std::f32::consts::LN_2;
    #[allow(clippy::excessive_precision)]
    const C2: f32 = 0.240_226_506_9;
    const C3: f32 = 0.055_504_11;
    const C4: f32 = 0.009_618_13;
    #[allow(clippy::excessive_precision)]
    const C5: f32 = 0.001_333_355_8;
    #[allow(clippy::excessive_precision)]
    const C6: f32 = 0.000_154_035_3;
    #[allow(clippy::excessive_precision)]
    const C7: f32 = 0.000_015_252_73;
    let x = x.clamp(-87.3, 88.7);
    let z = x * LOG2_E;
    let zf = z.floor();
    let f = z - zf;
    let p = 1.0 + f * (C1 + f * (C2 + f * (C3 + f * (C4 + f * (C5 + f * (C6 + f * C7))))));
    // wrapping: a NaN input reaches here with arbitrary bits (and leaves
    // as NaN through `p`), which must not trip debug overflow checks
    let e = ((zf + MAGIC).to_bits() as i32).wrapping_sub(MAGIC_BITS);
    let scale = f32::from_bits((e.wrapping_add(127) << 23) as u32);
    scale * p
}

/// Scalar reference implementation of [`segment_softmax`]: per-edge
/// segment-indexed passes with f64 denominators. Kept as the parity
/// baseline for the vectorised path (same role
/// [`softmax_rows_naive`] plays for [`softmax_rows`]); the proptests
/// assert the two agree within tolerance over random segment layouts.
pub fn segment_softmax_naive(scores: &Matrix, seg: &[u32], n_segments: usize) -> Matrix {
    assert_eq!(scores.cols, 1, "segment_softmax expects a column vector");
    assert_eq!(scores.rows, seg.len());
    let mut max = vec![f32::NEG_INFINITY; n_segments];
    for (i, &s) in seg.iter().enumerate() {
        let v = scores.data[i];
        let m = &mut max[s as usize];
        if v > *m {
            *m = v;
        }
    }
    let mut out = Matrix::zeros(scores.rows, 1);
    let mut denom = vec![0.0f64; n_segments];
    for (i, &s) in seg.iter().enumerate() {
        let e = fast_exp(scores.data[i] - max[s as usize]);
        out.data[i] = e;
        denom[s as usize] += e as f64;
    }
    for (i, &s) in seg.iter().enumerate() {
        let d = denom[s as usize];
        out.data[i] = if d > 0.0 {
            (out.data[i] as f64 / d) as f32
        } else {
            0.0
        };
    }
    out
}

/// True if `seg` is non-decreasing, i.e. in sort-by-segment layout: the
/// precondition of [`segment_softmax`] and its backward.
/// `BipartiteLayer::dst` is pushed target by target, so the encoder's
/// layout always is.
pub(crate) fn seg_is_sorted(seg: &[u32]) -> bool {
    seg.windows(2).all(|w| w[0] <= w[1])
}

/// Softmax of one segment's values where they lie: a max fold, a
/// [`fast_exp`] pass, and a [`lane_sum`] denominator applied as one `f32`
/// inverse — the same three vectorisable passes as [`softmax_rows`]. A
/// run whose denominator is not positive is zero-filled.
fn softmax_run_inplace(run: &mut [f32]) {
    let max = run.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    for v in run.iter_mut() {
        *v = fast_exp(*v - max);
    }
    let denom = lane_sum(run);
    if denom > 0.0 {
        let inv = (1.0 / denom) as f32;
        for v in run.iter_mut() {
            *v *= inv;
        }
    } else {
        run.fill(0.0);
    }
}

/// End of the contiguous run of `seg[lo]` that starts at `lo`.
#[inline]
fn run_end(seg: &[u32], lo: usize) -> usize {
    let s = seg[lo];
    let mut hi = lo + 1;
    while hi < seg.len() && seg[hi] == s {
        hi += 1;
    }
    hi
}

/// Blocked per-run softmax over values already in sort-by-segment
/// layout: [`softmax_run_inplace`] on each contiguous run of one segment
/// — variable-length runs instead of [`softmax_rows`]' fixed-width rows.
fn softmax_runs_inplace(vals: &mut [f32], seg: &[u32]) {
    let mut lo = 0usize;
    while lo < vals.len() {
        let hi = run_end(seg, lo);
        softmax_run_inplace(&mut vals[lo..hi]);
        lo = hi;
    }
}

/// Softmax within segments. `scores` is a column vector (Ex1); `seg[i]`
/// names the segment of row `i`. Rows of the same segment are normalised
/// together with the max-subtraction trick. Returns a column vector.
///
/// This is the edge-softmax of graph attention: segments are destination
/// nodes, rows are incoming edges. `seg` must be sorted by segment (the
/// encoder emits edges grouped by target); each contiguous run gets
/// blocked max/exp/sum passes. Agrees with the scalar
/// [`segment_softmax_naive`] within a few ULP (the denominator is
/// lane-summed and applied as one `f32` inverse, the trade
/// [`softmax_rows`] already makes).
///
/// # Panics
///
/// If `seg` is not non-decreasing.
pub fn segment_softmax(scores: &Matrix, seg: &[u32], n_segments: usize) -> Matrix {
    assert_eq!(scores.cols, 1, "segment_softmax expects a column vector");
    assert_eq!(scores.rows, seg.len());
    assert!(
        seg_is_sorted(seg),
        "segment_softmax expects ids sorted by segment ({n_segments} segments)"
    );
    let mut out = Matrix::zeros(scores.rows, 1);
    out.data.copy_from_slice(&scores.data);
    softmax_runs_inplace(&mut out.data, seg);
    out
}

/// 8-lane partial dot product (f32 lanes, f64 total) — [`lane_sum`]'s
/// summation order applied to an elementwise product.
#[inline]
fn lane_dot(a: &[f32], b: &[f32]) -> f64 {
    let mut lanes = [0.0f32; 8];
    let mut ac = a.chunks_exact(8);
    let mut bc = b.chunks_exact(8);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        for ((l, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *l += x * y;
        }
    }
    lanes.iter().map(|&l| l as f64).sum::<f64>()
        + ac.remainder()
            .iter()
            .zip(bc.remainder())
            .map(|(&x, &y)| (x * y) as f64)
            .sum::<f64>()
}

/// Per-run backward pass over sort-by-segment layouts:
/// `out[j] = y[j] * (g[j] - dot_run)` with the run dot lane-summed.
fn segment_softmax_backward_runs(y: &[f32], g: &[f32], seg: &[u32], out: &mut [f32]) {
    let mut lo = 0usize;
    while lo < y.len() {
        let hi = run_end(seg, lo);
        let dot = lane_dot(&g[lo..hi], &y[lo..hi]) as f32;
        for j in lo..hi {
            out[j] = y[j] * (g[j] - dot);
        }
        lo = hi;
    }
}

/// Backward of [`segment_softmax`]: given the forward output `y` and the
/// upstream gradient `g` (both Ex1 over the same `seg` layout), returns
/// `gx[j] = y[j] * (g[j] - Σ_{i∈seg(j)} g[i]·y[i])`.
///
/// Vectorised exactly like the forward, under the same sorted-`seg`
/// precondition: contiguous runs with `lane_dot`-ordered per-segment dot
/// products. The tape's `SegmentSoftmax` backward dispatches here.
pub fn segment_softmax_backward(y: &Matrix, g: &Matrix, seg: &[u32], n_segments: usize) -> Matrix {
    assert_eq!(y.cols, 1, "segment_softmax_backward expects column vectors");
    assert_eq!(y.shape(), g.shape());
    assert_eq!(y.rows, seg.len());
    assert!(
        seg_is_sorted(seg),
        "segment_softmax_backward expects ids sorted by segment ({n_segments} segments)"
    );
    let mut out = Matrix::zeros(y.rows, 1);
    segment_softmax_backward_runs(&y.data, &g.data, seg, &mut out.data);
    out
}

/// One attention head's operands for [`gat_attend_head`] and its
/// backward: the projected source rows and the two attention logit
/// halves, over one bipartite layer's edge lists.
#[derive(Clone, Copy)]
pub(crate) struct GatHead<'a> {
    /// Projected source rows `h W` (`n_sources × d_head`).
    pub hw: &'a Matrix,
    /// Source half of the logit, one per source slot.
    pub s_src: &'a [f32],
    /// Query half of the logit, one per source slot, read at a target's
    /// self-loop slot.
    pub s_dst: &'a [f32],
    /// Per-edge source slot.
    pub src: &'a [u32],
    /// Per-edge target slot, non-decreasing.
    pub dst: &'a [u32],
    /// Per-target source slot of the target's own temporal node.
    pub self_idx: &'a [u32],
    /// Negative slope of both LeakyReLUs.
    pub slope: f32,
}

#[inline(always)]
fn leaky(x: f32, slope: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        slope * x
    }
}

/// One head of a graph-attention layer in one walk over the targets' edge
/// runs (Eqs. 4–5): per run, the logits `leaky(s_src[src] + s_dst[self])`,
/// their [`softmax_run_inplace`] (left in `alpha`, one weight per edge),
/// the `alpha`-weighted sum of the run's `hw` rows — a separate multiply
/// and add per edge, in edge order, from zero — and `leaky` of that sum,
/// written to columns `col0..col0 + d_head` of the target's row of `out`.
///
/// `out` must arrive zeroed: a target's block is its accumulator, and a
/// target no edge names keeps the zeros. Every bit is the one `gather_rows`
/// ×3 → `add` → `leaky_relu` → [`segment_softmax`] → [`scale_rows`] →
/// [`scatter_add_rows`] → `leaky_relu` → [`concat_cols`] produce.
pub(crate) fn gat_attend_head(head: GatHead<'_>, alpha: &mut [f32], out: &mut Matrix, col0: usize) {
    let GatHead {
        hw,
        s_src,
        s_dst,
        src,
        dst,
        self_idx,
        slope,
    } = head;
    let (d, width) = (hw.cols, out.cols);
    let mut lo = 0usize;
    while lo < dst.len() {
        let hi = run_end(dst, lo);
        let t = dst[lo] as usize;
        let q = s_dst[self_idx[t] as usize];
        let (run, run_src) = (&mut alpha[lo..hi], &src[lo..hi]);
        for (a, &s) in run.iter_mut().zip(run_src) {
            *a = leaky(s_src[s as usize] + q, slope);
        }
        softmax_run_inplace(run);
        let acc = &mut out.data[t * width + col0..t * width + col0 + d];
        for (&a, &s) in run.iter().zip(run_src) {
            for (o, &x) in acc.iter_mut().zip(hw.row(s as usize)) {
                *o += x * a;
            }
        }
        for o in acc.iter_mut() {
            *o = leaky(*o, slope);
        }
        lo = hi;
    }
}

/// Gradients of one [`gat_attend_head`] call, each a zeroed buffer the
/// backward accumulates into in edge order.
pub(crate) struct GatHeadGrads<'a> {
    /// `∂hw` (`n_sources × d_head`).
    pub hw: &'a mut Matrix,
    /// `∂s_src`, one per source slot.
    pub s_src: &'a mut [f32],
    /// `∂s_dst`, one per source slot.
    pub s_dst: &'a mut [f32],
}

/// Backward of [`gat_attend_head`]: `alpha` and `out` are what the forward
/// left, `g` is the gradient of `out`. Per run it undoes the output
/// `leaky`, takes `∂alpha` as the ascending-column dot of that gradient
/// with each edge's `hw` row, applies the softmax backward
/// ([`lane_dot`]-ordered, as `segment_softmax_backward_runs`) and the logit
/// `leaky`, and adds each edge's share to `∂hw[src]`, `∂s_src[src]` and
/// `∂s_dst[self]` — the arithmetic and the per-row order of contributions
/// of the op-by-op chain's reverse walk.
///
/// The pre-activation sum is not kept: it was negative exactly where the
/// output carries a sign bit (a sum that starts from `+0.0` is never
/// `-0.0`, and `slope · x` keeps the sign of a negative `x` even when it
/// underflows), and a NaN takes the slope on both sides.
pub(crate) fn gat_attend_head_backward(
    head: GatHead<'_>,
    alpha: &[f32],
    out: &Matrix,
    g: &Matrix,
    col0: usize,
    grads: GatHeadGrads<'_>,
) {
    let GatHead {
        hw,
        s_src,
        s_dst,
        src,
        dst,
        self_idx,
        slope,
    } = head;
    let (d, width) = (hw.cols, out.cols);
    let mut g_acc = vec![0.0f32; d];
    let mut g_alpha: Vec<f32> = Vec::new();
    let mut lo = 0usize;
    while lo < dst.len() {
        let hi = run_end(dst, lo);
        let t = dst[lo] as usize;
        let block = t * width + col0..t * width + col0 + d;
        for ((ga, &gv), &y) in g_acc
            .iter_mut()
            .zip(&g.data[block.clone()])
            .zip(&out.data[block])
        {
            *ga = if y.is_sign_negative() || y.is_nan() {
                slope * gv
            } else {
                gv
            };
        }
        let (run, run_src) = (&alpha[lo..hi], &src[lo..hi]);
        g_alpha.clear();
        for (&a, &s) in run.iter().zip(run_src) {
            let row = hw.row(s as usize);
            let mut dot = 0.0f32;
            for (&gv, &x) in g_acc.iter().zip(row) {
                dot += gv * x;
            }
            g_alpha.push(dot);
            for (o, &gv) in grads.hw.row_mut(s as usize).iter_mut().zip(&g_acc) {
                *o += gv * a;
            }
        }
        let dot = lane_dot(&g_alpha, run) as f32;
        let self_slot = self_idx[t] as usize;
        let q = s_dst[self_slot];
        for ((&a, &ga), &s) in run.iter().zip(&g_alpha).zip(run_src) {
            let g_e = a * (ga - dot);
            let g_z = if s_src[s as usize] + q >= 0.0 {
                g_e
            } else {
                slope * g_e
            };
            grads.s_dst[self_slot] += g_z;
            grads.s_src[s as usize] += g_z;
        }
        lo = hi;
    }
}

/// Scale each row `i` of `x` by the scalar `s[i]` (s is Ex1).
pub fn scale_rows(x: &Matrix, s: &Matrix) -> Matrix {
    assert_eq!(s.cols, 1);
    assert_eq!(x.rows, s.rows);
    let mut out = x.clone();
    for r in 0..x.rows {
        let f = s.data[r];
        for v in out.row_mut(r) {
            *v *= f;
        }
    }
    out
}

/// Row-wise dot product of two same-shape matrices: returns Ex1 column.
pub fn rowwise_dot(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.shape(), b.shape());
    let mut out = Matrix::zeros(a.rows, 1);
    for r in 0..a.rows {
        let mut acc = 0.0f32;
        for (&x, &y) in a.row(r).iter().zip(b.row(r)) {
            acc += x * y;
        }
        out.data[r] = acc;
    }
    out
}

/// Horizontally concatenate two matrices with equal row counts.
pub fn concat_cols(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows, b.rows, "concat_cols: row mismatch");
    let mut out = Matrix::zeros(a.rows, a.cols + b.cols);
    for r in 0..a.rows {
        out.data[r * (a.cols + b.cols)..r * (a.cols + b.cols) + a.cols].copy_from_slice(a.row(r));
        out.data[r * (a.cols + b.cols) + a.cols..(r + 1) * (a.cols + b.cols)]
            .copy_from_slice(b.row(r));
    }
    out
}

/// Scalar reference row-softmax (libm `exp`, f64 normalisation) — kept as
/// the parity baseline for [`softmax_rows`], which replaces it on the hot
/// path with vectorised [`fast_exp`] passes.
pub fn softmax_rows_naive(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for r in 0..x.rows {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f64;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            denom += *v as f64;
        }
        if denom > 0.0 {
            for v in row.iter_mut() {
                *v = (*v as f64 / denom) as f32;
            }
        }
    }
    out
}

/// Row-wise softmax (used by decoders over candidate sets).
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// [`softmax_rows`] overwriting the logits with their probabilities (the
/// generation path normalises its score matrix where it lies).
pub fn softmax_rows_inplace(out: &mut Matrix) {
    for r in 0..out.rows {
        let row = out.row_mut(r);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        // three separate passes so the exp and scale loops auto-vectorise
        // (a fused f64 accumulator in the exp loop forces scalar code)
        for v in row.iter_mut() {
            *v = fast_exp(*v - max);
        }
        let denom = lane_sum(row);
        if denom > 0.0 {
            let inv = (1.0 / denom) as f32;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
}

/// 8-lane partial-sum reduction (f32 lanes, f64 total) — the exact
/// summation order [`softmax_rows`] normalises with; mirrored by
/// [`row_softmax_stats`] so its denominators match bit-for-bit.
#[inline]
fn lane_sum(vals: &[f32]) -> f64 {
    let mut lanes = [0.0f32; 8];
    let mut chunks = vals.chunks_exact(8);
    for ch in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(ch) {
            *l += v;
        }
    }
    lanes.iter().map(|&l| l as f64).sum::<f64>()
        + chunks.remainder().iter().map(|&v| v as f64).sum::<f64>()
}

/// Softmax statistics of one logit row: `(max, inv_denom)` such that
/// `p[j] = fast_exp(row[j] - max) * inv_denom` reproduces the
/// corresponding [`softmax_rows`] output bit-for-bit (same `fast_exp`,
/// same 8-lane summation order, same single `f32` rounding of the
/// inverse). `inv_denom` falls back to `1.0` when the denominator is not
/// positive (empty row), mirroring `softmax_rows` leaving such rows
/// unscaled.
///
/// This is the recompute primitive of the fused softmax-cross-entropy
/// backward ([`crate::tape::Tape::softmax_xent`]): storing `(max, inv)`
/// per row is `O(rows)`, versus `O(rows × cols)` for a materialised
/// probability matrix.
pub fn row_softmax_stats(row: &[f32]) -> (f32, f32) {
    /// Elements exponentiated per pass: long enough for `fast_exp` to run
    /// at full vector width (an 8-element block holds it to a quarter),
    /// short enough to stay on the stack.
    const BLOCK: usize = 64;
    let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    // Stream blocks through a stack buffer and fold each into the eight
    // lanes: lane `l` receives elements `l, l+8, …` in ascending order —
    // exactly [`lane_sum`]'s order — without materialising the
    // exponentials.
    let mut lanes = [0.0f32; 8];
    let mut e = [0.0f32; BLOCK];
    let mut tail: &[f32] = &[];
    for block in row.chunks(BLOCK) {
        let e = &mut e[..block.len()];
        for (o, &v) in e.iter_mut().zip(block) {
            *o = fast_exp(v - max);
        }
        let mut chunks = e.chunks_exact(8);
        for ch in &mut chunks {
            for (l, &v) in lanes.iter_mut().zip(ch) {
                *l += v;
            }
        }
        // non-empty for the last block only: BLOCK is a multiple of 8
        tail = chunks.remainder();
    }
    let denom =
        lanes.iter().map(|&l| l as f64).sum::<f64>() + tail.iter().map(|&v| v as f64).sum::<f64>();
    if denom > 0.0 {
        (max, (1.0 / denom) as f32)
    } else {
        (max, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

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
    fn matmul_small_known() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul_nn(&a, &b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let i = Matrix::from_fn(4, 4, |r, c| f32::from(u8::from(r == c)));
        assert_eq!(matmul_nn(&a, &i), a);
        assert_eq!(matmul_nn(&i, &a), a);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_fn(3, 5, |r, c| (r + 2 * c) as f32 * 0.5);
        let b = Matrix::from_fn(4, 5, |r, c| (2 * r + c) as f32 * 0.25);
        let direct = matmul_nt(&a, &b);
        let explicit = matmul_nn(&a, &b.transpose());
        for (x, y) in direct.as_slice().iter().zip(explicit.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_fn(5, 3, |r, c| (r + c) as f32 * 0.3);
        let b = Matrix::from_fn(5, 4, |r, c| (r * 2 + c) as f32 * 0.1);
        let direct = matmul_tn(&a, &b);
        let explicit = matmul_nn(&a.transpose(), &b);
        for (x, y) in direct.as_slice().iter().zip(explicit.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 7, |r, c| (r * 13 + c) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

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
    fn segment_softmax_sums_to_one_per_segment() {
        let scores = Matrix::from_vec(5, 1, vec![1.0, 2.0, 3.0, -1.0, 0.5]);
        let seg = vec![0u32, 0, 1, 1, 1];
        let sm = segment_softmax(&scores, &seg, 2);
        let s0: f32 = sm.as_slice()[..2].iter().sum();
        let s1: f32 = sm.as_slice()[2..].iter().sum();
        assert!(approx(s0, 1.0));
        assert!(approx(s1, 1.0));
        // within a segment larger scores get larger mass
        assert!(sm.get(1, 0) > sm.get(0, 0));
        assert!(sm.get(2, 0) > sm.get(4, 0));
    }

    #[test]
    fn segment_softmax_is_shift_invariant() {
        let scores = Matrix::from_vec(4, 1, vec![100.0, 101.0, 102.0, 99.0]);
        let shifted = scores.map(|v| v - 100.0);
        let seg = vec![0u32, 0, 0, 0];
        let a = segment_softmax(&scores, &seg, 1);
        let b = segment_softmax(&shifted, &seg, 1);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(approx(*x, *y));
        }
    }

    #[test]
    #[should_panic(expected = "sorted by segment")]
    fn segment_softmax_rejects_an_unsorted_layout() {
        segment_softmax(&Matrix::zeros(3, 1), &[0, 1, 0], 2);
    }

    #[test]
    fn softmax_rows_normalises() {
        let x = Matrix::from_fn(3, 4, |r, c| (r * c) as f32);
        let p = softmax_rows(&x);
        for r in 0..3 {
            let s: f32 = p.row(r).iter().sum();
            assert!(approx(s, 1.0));
        }
    }

    /// [`fast_exp`] as it was before its exponent conversion stopped
    /// using the saturating `as i32` cast.
    fn fast_exp_reference(x: f32) -> f32 {
        let x = x.clamp(-87.3, 88.7);
        let z = x * std::f32::consts::LOG2_E;
        let zf = z.floor();
        let f = z - zf;
        #[allow(clippy::excessive_precision)]
        let p = 1.0
            + f * (std::f32::consts::LN_2
                + f * (0.240_226_506_9
                    + f * (0.055_504_11
                        + f * (0.009_618_13
                            + f * (0.001_333_355_8
                                + f * (0.000_154_035_3 + f * 0.000_015_252_73))))));
        f32::from_bits((((zf as i32) + 127) << 23) as u32) * p
    }

    #[test]
    fn fast_exp_keeps_every_bit_of_the_cast_version() {
        let check = |x: f32| {
            let (new, old) = (fast_exp(x), fast_exp_reference(x));
            if x.is_nan() {
                assert!(new.is_nan() && old.is_nan(), "NaN {:#x}", x.to_bits());
            } else {
                assert_eq!(
                    new.to_bits(),
                    old.to_bits(),
                    "x = {x:e} ({:#x})",
                    x.to_bits()
                );
            }
        };
        // every 257th bit pattern: all exponents, both signs, NaNs included
        for bits in (0..=u32::MAX).step_by(257) {
            check(f32::from_bits(bits));
        }
        let next = |x: f32, up: bool| {
            let towards_zero = (x > 0.0) != up;
            f32::from_bits(if towards_zero {
                x.to_bits() - 1
            } else {
                x.to_bits() + 1
            })
        };
        for edge in [-87.3f32, 88.7] {
            for x in [next(edge, false), edge, next(edge, true)] {
                check(x);
            }
        }
        for x in [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MAX,
            f32::MIN,
        ] {
            check(x);
        }
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

    #[test]
    fn sum_mean_norm() {
        let x = Matrix::from_vec(2, 2, vec![1., 2., 3., 4.]);
        assert_eq!(x.sum(), 10.0);
        assert_eq!(x.mean(), 2.5);
        assert!((x.frobenius_norm() - 30.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "inner dim mismatch")]
    fn matmul_shape_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul_nn(&a, &b);
    }

    #[test]
    fn big_matmul_parallel_path_matches_serial() {
        // Force the parallel path and compare with a trivially computed cell.
        let n = 64;
        let a = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 7) % 5) as f32 - 2.0);
        let b = Matrix::from_fn(n, n, |r, c| ((r * 13 + c * 3) % 7) as f32 - 3.0);
        let c = matmul_nn(&a, &b);
        // verify a few cells against the definition
        for &(r, cc) in &[(0usize, 0usize), (5, 9), (63, 63), (31, 2)] {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a.get(r, k) * b.get(k, cc);
            }
            assert!(approx(c.get(r, cc), acc), "cell ({r},{cc})");
        }
    }
}
