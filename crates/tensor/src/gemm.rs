//! Matrix products: [`matmul_nn`], [`matmul_nt`] and [`matmul_tn`] name
//! one body that takes each operand's layout, and that body runs the
//! tiled GEMM driver with three microkernels, the naive loops, or the
//! one-column `matvec`.
//!
//! # Matmul design
//!
//! The three matmul variants (`nn`, `nt`, `tn`) share one cache-blocked
//! GEBP-style implementation (the private `gemm` driver), blocked for
//! the whole cache hierarchy:
//!
//! 1. **`jc`/`NC` column blocking.** The outermost loop walks B in
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

use crate::matrix::Matrix;
use crate::parallel::{par_chunks_mut, PAR_THRESHOLD};
use std::cell::RefCell;

/// Register-tile height of the portable and AVX2 tiles: rows of A per
/// microkernel invocation. The AVX-512 tile is deeper (see
/// [`MicrokernelKind::geometry`]).
const MR: usize = 4;
/// Register-tile width of the portable and AVX2 tiles: columns of B per
/// packed panel. The AVX-512 tile is wider (see
/// [`MicrokernelKind::geometry`]).
const NR: usize = 16;
/// Largest register-tile height across all microkernels (the AVX-512
/// tile is `8`×`32`); driver-side scratch is sized for this.
const MR_MAX: usize = 8;
/// Largest register-tile width across all microkernels.
const NR_MAX: usize = 32;
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
const NC: usize = 512;
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
pub(crate) enum Layout {
    /// Operand is stored row-major in its mathematical orientation.
    RowMajor,
    /// Operand is stored transposed (`nt` for B, `tn` for A).
    Transposed,
}

impl Layout {
    /// `(rows, cols)` of the operand as the product reads it.
    fn oriented(self, x: &Matrix) -> (usize, usize) {
        match self {
            Layout::RowMajor => (x.rows(), x.cols()),
            Layout::Transposed => (x.cols(), x.rows()),
        }
    }

    /// The other layout: how the backward of a product reads the operand.
    pub(crate) fn transposed(self) -> Layout {
        match self {
            Layout::RowMajor => Layout::Transposed,
            Layout::Transposed => Layout::RowMajor,
        }
    }
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
fn microkernel(k: usize, apack: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
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
    //! rest of `gemm.rs`, can write the constructor.

    /// Proof that the running CPU executes AVX2 and FMA: the argument the
    /// 4×16 kernel cannot be called without.
    ///
    /// ```
    /// let proof: Option<tg_tensor::gemm::Avx2Fma> = tg_tensor::gemm::Avx2Fma::detect();
    /// # let _ = proof;
    /// ```
    ///
    /// ```compile_fail
    /// // no constructor but `detect`
    /// let forged = tg_tensor::gemm::Avx2Fma(());
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
    /// let forged = tg_tensor::gemm::Avx512(());
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
    /// The auto-vectorised scalar tile. Always available
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
    fn geometry(self) -> (usize, usize) {
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
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_nn_naive_into(a, b, out.as_mut_slice());
    out
}

fn matmul_nn_naive_into(a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    out.fill(0.0);
    for r in 0..m {
        let out_row = &mut out[r * n..(r + 1) * n];
        let a_row = &a.as_slice()[r * k..(r + 1) * k];
        for (kk, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let b_row = &b.as_slice()[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
}

/// Naive dot-product `C = A @ B^T` — reference kernel for the parity tests.
pub fn matmul_nt_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    matmul_nt_naive_into(a, b, out.as_mut_slice());
    out
}

fn matmul_nt_naive_into(a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    for r in 0..m {
        let a_row = &a.as_slice()[r * k..(r + 1) * k];
        let out_row = &mut out[r * n..(r + 1) * n];
        for (c, o) in out_row.iter_mut().enumerate() {
            let b_row = &b.as_slice()[c * k..(c + 1) * k];
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
    let mut out = Matrix::zeros(a.cols(), b.cols());
    matmul_tn_naive_into(a, b, out.as_mut_slice());
    out
}

fn matmul_tn_naive_into(a: &Matrix, b: &Matrix, out: &mut [f32]) {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    out.fill(0.0);
    // out[r, c] = sum_k a[k, r] * b[k, c]; iterate k outer for contiguity.
    for kk in 0..k {
        let a_row = &a.as_slice()[kk * m..(kk + 1) * m];
        let b_row = &b.as_slice()[kk * n..(kk + 1) * n];
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
    matmul(a, Layout::RowMajor, b, Layout::RowMajor)
}

/// `C = A @ B^T`. Shapes: `(m,k) @ (n,k)^T -> (m,n)`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    matmul(a, Layout::RowMajor, b, Layout::Transposed)
}

/// `C = A^T @ B`. Shapes: `(k,m)^T @ (k,n) -> (m,n)`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    matmul(a, Layout::Transposed, b, Layout::RowMajor)
}

/// `C = op(A) @ op(B)`, each operand read in its `Layout`, on the loop
/// nest the product's size selects.
pub(crate) fn matmul(a: &Matrix, a_layout: Layout, b: &Matrix, b_layout: Layout) -> Matrix {
    let (m, k) = a_layout.oriented(a);
    let n = b_layout.oriented(b).1;
    let mut out = Matrix::zeros(m, n);
    let path = GemmPath::for_product(m, k, n);
    matmul_into_on(path, a, a_layout, b, b_layout, &mut out);
    out
}

/// [`matmul`] into a pre-shaped output, on a loop nest the caller chose.
/// A one-column row-major product takes [`matvec`].
pub(crate) fn matmul_into_on(
    path: GemmPath,
    a: &Matrix,
    a_layout: Layout,
    b: &Matrix,
    b_layout: Layout,
    out: &mut Matrix,
) {
    let ((m, k), (kb, n)) = (a_layout.oriented(a), b_layout.oriented(b));
    assert_eq!(
        k, kb,
        "matmul: inner dim mismatch, op(A) is {m}x{k} and op(B) is {kb}x{n}"
    );
    assert_eq!(out.shape(), (m, n), "matmul_into_on: bad output shape");
    let (a_data, b_data, out_data) = (a.as_slice(), b.as_slice(), out.as_mut_slice());
    match (path, a_layout, b_layout) {
        (_, Layout::RowMajor, Layout::RowMajor) if n == 1 => matvec(path, a_data, b_data, out_data),
        (GemmPath::Tiled, ..) => gemm(out_data, m, k, n, a_data, a_layout, b_data, b_layout),
        (GemmPath::Naive, Layout::RowMajor, Layout::RowMajor) => {
            matmul_nn_naive_into(a, b, out_data)
        }
        (GemmPath::Naive, Layout::RowMajor, Layout::Transposed) => {
            matmul_nt_naive_into(a, b, out_data)
        }
        (GemmPath::Naive, Layout::Transposed, Layout::RowMajor) => {
            matmul_tn_naive_into(a, b, out_data)
        }
        (GemmPath::Naive, Layout::Transposed, Layout::Transposed) => {
            unreachable!("no product reads both operands transposed")
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
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
