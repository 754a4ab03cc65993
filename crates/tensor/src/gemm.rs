//! Matrix products: [`matmul_nn`], [`matmul_nt`] and [`matmul_tn`] name
//! one body that takes each operand's layout, and that body runs the
//! tiled GEMM driver with three microkernels, the naive loops, or the
//! one-column `matvec`.
//!
//! # Matmul design
//!
//! The three matmul variants (`nn`, `nt`, `tn`) share one cache-blocked
//! GEBP-style implementation (the private `gemm` driver). Its register
//! tile computes `C[i, j] += Σ A[i, kk] · B[kk, j]` by broadcasting one
//! element of A per row and multiplying it into a vector cut from one
//! row of B. So it reads A a scalar at a time, at any stride, and B a
//! contiguous row segment at a time:
//!
//! 1. **`jc`/`NC` column blocking.** The outermost loop walks B in
//!    slices of `NC` columns so the `KC`×`NC` slice a row block streams
//!    against stays L2-resident. `NC` is a multiple of every kernel's
//!    panel width.
//! 2. **Pack only what a transpose forces.** The broadcast side reads A
//!    in place through two strides: row-major A as `a[r·k + kk]`, the
//!    stored-transposed A of `tn` as `a[kk·m + r]`. The vector side reads
//!    a row-major B in place, `b[kk·n + j]`, with masked loads for the
//!    column fringe. One rule (the private `Pack::rule`) picks the at
//!    most one operand a product packs:
//!    - an `nt` product's B is stored `(n, k)`, which neither side can
//!      read, so it packs one operand. While `m < n` and `m ≤ 64` (a
//!      generation unit's score, a few dozen slots against thousands of
//!      candidates) that is A, as one `k`×`m` block, and the tile
//!      computes `Cᵀ = B·Aᵀ` instead: it broadcasts B's rows in place and
//!      writes each tile back into C transposed. Otherwise it is B, into
//!      `nr`-wide zero-padded column panels, `bpack[panel][kk][nr]`;
//!    - every other product packs nothing, and a row-major B is read in
//!      place at any width. The model's row-major Bs are at most
//!      `d_model` columns wide (32 by default). Large square products pay
//!      for it, since B's rows sit far apart (a `1024³` `nn` takes ~20 %
//!      longer than with B packed), but no model product has such a
//!      shape.
//! 3. **[`KC`] k-blocking + row-split in parallel.** C's rows are split
//!    across the persistent worker pool
//!    ([`crate::parallel::par_chunks_mut`]) — the columns of the view
//!    when the tiles compute `Cᵀ` — and each worker walks `jc`, then the
//!    `KC` slices, over its part; operands and the pack are shared
//!    read-only by all workers.
//! 4. **Microkernel.** Each worker walks its rows in blocks of the
//!    kernel's `MR` and computes an `MR`×`NR` register tile per column
//!    panel, reading C in place at the tile's strides (loads only after
//!    the first `KC` block). A row fringe repeats the last real row of A
//!    and drops the extra rows at the write-back; a column fringe masks
//!    the loads of B and the write-back.
//!
//! # Microkernel dispatch
//!
//! The inner tile has three implementations behind one contract
//! (`C += A @ B` over one strided `Tile`), listed by
//! [`available_microkernels`] fastest-first and selected at runtime
//! with `is_x86_feature_detected!`:
//!
//! - **AVX-512** ([`MicrokernelKind::Avx512`]): 8×32 tile in 16 ZMM
//!   accumulators (8 when the panel is at most 16 columns wide), masked
//!   loads/stores for column fringes.
//! - **AVX2+FMA** ([`MicrokernelKind::Avx2Fma`]): the 4×16 tile held in
//!   8 YMM accumulators, one broadcast + two FMAs per row per `kk`
//!   step, and software prefetch of B.
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
//! # Bits
//!
//! Under either FMA kernel, every element of a tiled product is one
//! `f32::mul_add` chain over ascending `k` from `+0.0`, whatever the
//! layouts, the packing or the swap: `fma(a, b, c) == fma(b, a, c)`, so
//! computing `Cᵀ` runs the same chain, and the `f32` store and reload of
//! a partial sum at a `KC` boundary is exact. The two FMA kernels
//! therefore agree **bitwise** on any data; the portable tile runs the
//! same chain with a multiply and an add per step (two roundings), so it
//! agrees bitwise on integer data and to ~`sqrt(k)` ULP on fractional
//! data. See the `fma_tiles_are_one_mul_add_chain`,
//! `simd_matmul_matches_portable*` and `fma_kernels_agree_*` tests.
//!
//! A product can also be cut along `k` into consecutive calls of
//! [`matmul_into_on`], the first under [`Start::Zero`] and the rest under
//! [`Start::Continue`]: a continued call reloads each partial sum from
//! the output on its first `KC` block (the naive loops skip their
//! zero-fill), so the cut is one more exact store and reload and every
//! path keeps its bits (`continued_matmul_matches_one_call`).
//! `Tape::score_xent` accumulates `∂W_c = Gᵀ·h` that way, one L2-sized
//! block of `G`'s rows at a time.
//!
//! The one pack lives in a thread-local, so steady-state training does
//! not allocate per matmul call. Small products (`m*k*n < `[`TILE_THRESHOLD`])
//! skip the driver entirely and use the naive ikj loops (`matmul_*_naive`),
//! which are also kept public as the reference implementation for the
//! parity property tests and as the benchmark baseline.

use crate::matrix::{Matrix, RowBlock};
use crate::parallel::{par_chunks_mut, PAR_THRESHOLD};
use std::cell::RefCell;

/// Register-tile height of the portable and AVX2 tiles: rows of A per
/// microkernel invocation. The AVX-512 tile is deeper (see
/// [`MicrokernelKind::geometry`]).
const MR: usize = 4;
/// Register-tile width of the portable and AVX2 tiles: columns of B per
/// panel. The AVX-512 tile is wider (see [`MicrokernelKind::geometry`]).
const NR: usize = 16;
/// Largest register-tile height across all microkernels (the AVX-512
/// tile is `8`×`32`).
const MR_MAX: usize = 8;
/// Largest register-tile width across all microkernels.
const NR_MAX: usize = 32;
/// K-dimension block: the `KC` rows of a B panel (16–32 KiB) and the
/// `KC` columns of an A row block stay L1-resident inside the
/// microkernel.
pub const KC: usize = 256;
/// N-dimension block (the GEBP `jc` loop): the driver walks B's columns
/// in `NC`-wide slices so one `KC`×`NC` slice (512 KiB at f32) stays
/// L2-resident while every row block of A streams against it. Without
/// this loop all of B (4 MB at 1024²) is re-pulled from L3 per `MR`-row
/// block. `NC` is a multiple of every kernel's panel width, so panel
/// boundaries never straddle a slice.
const NC: usize = 512;
/// Products with fewer than this many fused multiply-adds use the naive
/// loops; below it, the driver's set-up costs more than it saves.
pub const TILE_THRESHOLD: usize = 16 * 16 * 16;

/// Which loop nest a product runs on. The two accumulate in different
/// orders, so their results differ in the last bit: an op that multiplies
/// a **row subset** of an operand and must keep the bits of the full
/// product picks the path from the full product's size
/// ([`crate::tape::Tape::score_xent`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmPath {
    /// The `matmul_*_naive` loops.
    Naive,
    /// The tiled driver (the private `gemm`).
    Tiled,
}

impl GemmPath {
    /// The path [`matmul_nn`], [`matmul_nt`] and [`matmul_tn`] take for an
    /// `m·k·n` product.
    pub fn for_product(m: usize, k: usize, n: usize) -> Self {
        if m * k * n < TILE_THRESHOLD {
            GemmPath::Naive
        } else {
            GemmPath::Tiled
        }
    }
}

thread_local! {
    /// Per-thread scratch for the one operand an `nt` product packs
    /// (caller side).
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Take the thread-local pack buffer. Take/put (instead of holding a
/// borrow across the computation) keeps this safe under the pool's
/// caller-helps policy, where a thread waiting in one gemm can execute an
/// unrelated task that itself enters gemm: the nested call simply finds an
/// empty buffer and allocates its own.
fn take_pack() -> Vec<f32> {
    PACK.with(|c| c.take())
}

fn put_pack(buf: Vec<f32>) {
    PACK.with(|c| {
        let mut slot = c.borrow_mut();
        if slot.capacity() < buf.capacity() {
            *slot = buf;
        }
    });
}

/// Which layout a product reads an operand in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Operand is stored row-major in its mathematical orientation.
    RowMajor,
    /// Operand is stored transposed (`nt` for B, `tn` for A).
    Transposed,
}

impl Layout {
    /// `(rows, cols)` of the operand as the product reads it.
    fn oriented(self, x: RowBlock) -> (usize, usize) {
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

/// Where each sum of a product starts: the one difference between a
/// product over all of `k` and one over a later piece of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Start {
    /// At `+0.0`: the product overwrites its output and never reads it.
    Zero,
    /// At the output's value: the product continues the sums an earlier
    /// call over the preceding rows of `k` left there, exactly as the
    /// tiled driver continues them at a [`KC`] edge.
    Continue,
}

/// Which operand [`gemm`] packs before its tiles run — the one packing
/// rule. An operand is packed only when the tiles cannot read it in
/// place: an `nt` product's B is stored `(n, k)`, which neither side of
/// the tile reads in place, so it packs one operand — A (and computes
/// `Cᵀ`) while `m < n` and `m ≤` [`SWAP_MAX_M`], else B. Every other
/// product reads both operands in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pack {
    /// Both operands are read in place.
    Nothing,
    /// B is packed into column panels of the kernel's width.
    B,
    /// A is packed as one `k`×`m` block, and the tiles compute `Cᵀ = B·Aᵀ`
    /// with B's rows broadcast in place.
    A,
}

/// Largest `m` for which an `nt` product packs A instead of B. The swap
/// saves B's pack (`n·k` strided copies) but writes every tile of C back
/// transposed, element by element. On the AVX-512 tile at `k = 32`,
/// `n = 1743` it takes 49 µs against 86 at 18 rows and 127 against 136 at
/// 64; from 128–256 rows, or from 200 rows at `n = 552`, packing B is as
/// fast or faster, and at `1795 × 1909` the swap takes 3× as long.
///
/// Generation no longer swaps: it wants `Cᵀ` and asks for it
/// ([`matmul_nt_transposed`]). The products that still do are the short
/// ones of training and the baselines: `Tape::score_xent`'s row blocks of
/// at most 64 scored rows, `Tape::matmul_nt` where `EgoDecoder::score`
/// (the oracles' reference) or a baseline's walk model scores a small
/// batch, and the baselines' one-row scorers.
const SWAP_MAX_M: usize = 64;

impl Pack {
    /// The rule, for an `m`-row, `n`-column product in the given layouts.
    fn rule(m: usize, n: usize, a_layout: Layout, b_layout: Layout) -> Pack {
        match (a_layout, b_layout) {
            (Layout::RowMajor, Layout::Transposed) if m < n && m <= SWAP_MAX_M => Pack::A,
            (_, Layout::Transposed) => Pack::B,
            (_, Layout::RowMajor) => Pack::Nothing,
        }
    }
}

/// Pack the `k`×`n` operand `src`, stored transposed as `(n, k)`, into
/// `nr`-wide column panels, zero-padding the last one:
/// `out[p·k·nr + kk·nr + j] = B[kk, p·nr + j]`. With `nr = n` this is a
/// plain row-major copy of the operand as read.
fn pack_panels(src: &[f32], k: usize, n: usize, nr: usize, out: &mut Vec<f32>) {
    let panels = n.div_ceil(nr);
    out.clear();
    out.resize(panels * k * nr, 0.0);
    for (p, panel) in out.chunks_exact_mut(k * nr).enumerate() {
        let (j0, width) = (p * nr, nr.min(n - p * nr));
        // panel column j is source row j0 + j
        for (j, row) in src[j0 * k..(j0 + width) * k].chunks_exact(k).enumerate() {
            for (kk, &v) in row.iter().enumerate() {
                panel[kk * nr + j] = v;
            }
        }
    }
}

/// The broadcast side of a product as the tiles read it: element
/// `(i, kk)` at `data[i·rs + kk·cs]`.
#[derive(Clone, Copy)]
struct Broadcast<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

/// The vector side of a product as the tiles read it: element `(kk, j)`
/// at `data[(j / nr)·panel + j % nr + kk·ld]`, for the kernel's panel
/// width `nr`. An operand read in place has `panel = nr` (so the offset
/// is `j + kk·ld`); a panel pack has `ld = nr` and `panel = k·nr`.
#[derive(Clone, Copy)]
struct Vector<'a> {
    data: &'a [f32],
    ld: usize,
    panel: usize,
}

/// One register tile, in the operand contract every microkernel shares:
/// `C[i, j] (+)= Σ_{kk < k} A[i, kk] · B[kk, j]` for `i < rows`,
/// `j < width`, with
/// - A (the broadcast side) at `a[i·a_rs + kk·a_cs]`,
/// - B (the vector side) at `b[kk·ldb + j]`,
/// - C at `c[i·c_rs + j·c_cs]`.
///
/// When `first_k` is set the sums start at `+0.0`; otherwise they start
/// from C. A kernel reads no A row at or past `rows` (a fringe repeats
/// row `rows - 1`), and reads B past `width` only under a mask.
#[derive(Clone, Copy)]
struct Tile {
    k: usize,
    a: *const f32,
    a_rs: usize,
    a_cs: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    c_rs: usize,
    c_cs: usize,
    rows: usize,
    width: usize,
    first_k: bool,
}

impl Tile {
    /// Offsets of the `MR_MAX` A rows a kernel broadcasts from: row `i`,
    /// or row `rows - 1` past the fringe.
    #[inline(always)]
    fn a_rows(&self) -> [usize; MR_MAX] {
        std::array::from_fn(|i| i.min(self.rows - 1) * self.a_rs)
    }
}

/// Copy the tile's `rows`×`width` block of C into `buf`.
///
/// # Safety
/// `t` satisfies the [`Tile`] contract.
#[inline(always)]
unsafe fn load_c<const W: usize>(t: &Tile, buf: &mut [[f32; W]]) {
    for (i, row) in buf.iter_mut().enumerate().take(t.rows) {
        for (j, v) in row.iter_mut().enumerate().take(t.width) {
            // SAFETY: (i, j) is inside the tile, so C holds it.
            *v = unsafe { *t.c.add(i * t.c_rs + j * t.c_cs) };
        }
    }
}

/// Write `buf`'s `rows`×`width` block back into the tile's C, walking
/// C's rows when the tile is transposed into it.
///
/// # Safety
/// `t` satisfies the [`Tile`] contract.
#[inline(always)]
unsafe fn store_c<const W: usize>(t: &Tile, buf: &[[f32; W]]) {
    for j in 0..t.width {
        for (i, row) in buf.iter().enumerate().take(t.rows) {
            // SAFETY: (i, j) is inside the tile, so C holds it.
            unsafe { *t.c.add(i * t.c_rs + j * t.c_cs) = row[j] };
        }
    }
}

/// The portable `MR`×`NR` register tile. With `MR`/`NR` constant the
/// compiler unrolls the inner pair of loops into vector code with `acc`
/// held in registers. This is the reference tile the SIMD path is
/// parity-tested against, and the fallback wherever AVX2+FMA is
/// unavailable.
///
/// # Safety
/// `t` satisfies the [`Tile`] contract, with `rows <= MR`, `width <= NR`.
unsafe fn portable_tile(t: &Tile) {
    debug_assert!(t.rows <= MR && t.width <= NR);
    /// `kk` steps per refill of a column fringe's copy of B.
    const FRINGE_K: usize = 32;
    let mut acc = [[0.0f32; NR]; MR];
    // SAFETY: the caller's contract, which `portable_body` shares; a
    // fringe's copy of B is `NR` wide, zero past `width`.
    unsafe {
        if !t.first_k {
            load_c(t, &mut acc);
        }
        if t.width == NR {
            portable_body(t, &mut acc);
        } else {
            // Without masked loads, a column fringe runs the full-width
            // body over a zero-padded copy of its rows of B, in ascending
            // blocks of `FRINGE_K` steps.
            let mut rows = [[0.0f32; NR]; FRINGE_K];
            for k0 in (0..t.k).step_by(FRINGE_K) {
                let klen = FRINGE_K.min(t.k - k0);
                for (kk, row) in rows.iter_mut().enumerate().take(klen) {
                    let src = std::slice::from_raw_parts(t.b.add((k0 + kk) * t.ldb), t.width);
                    row[..t.width].copy_from_slice(src);
                }
                let block = Tile {
                    k: klen,
                    a: t.a.add(k0 * t.a_cs),
                    b: rows.as_ptr().cast(),
                    ldb: NR,
                    ..*t
                };
                portable_body(&block, &mut acc);
            }
        }
        store_c(t, &acc);
    }
}

/// `acc += A·B` over a tile whose B rows are all `NR` wide. Kept out of
/// line: inlined into [`portable_tile`], the compiler no longer
/// vectorises it along B's rows.
///
/// # Safety
/// As [`portable_tile`], with `width == NR` as far as B is concerned.
#[inline(never)]
unsafe fn portable_body(t: &Tile, acc: &mut [[f32; NR]; MR]) {
    let rows = t.a_rows();
    for kk in 0..t.k {
        // SAFETY: row kk of B holds `NR` elements from `t.b + kk·ldb`, and
        // A's rows `rows[..MR]` hold column kk.
        let (a, b) = unsafe {
            let a: [f32; MR] = std::array::from_fn(|r| *t.a.add(rows[r] + kk * t.a_cs));
            (a, std::slice::from_raw_parts(t.b.add(kk * t.ldb), NR))
        };
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
    //! Explicit AVX2+FMA implementation of the register tile.
    //!
    //! The register layout is fixed to the crate's `MR = 4` × `NR = 16`
    //! geometry (compile-time asserted below): 8 YMM accumulators (4 rows
    //! × 2 halves of 8 `f32` lanes), 2 B-row loads and 4 A broadcasts per
    //! `kk` step. That is 11 live YMM registers, comfortably inside the 16
    //! architectural ones, and the 8 FMAs per step keep both FMA ports
    //! busy once the loop is warm. A C read in place (unit column
    //! stride) is loaded and stored directly, masked at a column fringe;
    //! a C the tile is transposed into moves through a stack copy.

    use super::{load_c, store_c, Avx2Fma, Tile, MR, NR};
    use std::arch::x86_64::*;

    // The body below is written for exactly this tile shape.
    const _: () = assert!(MR == 4 && NR == 16, "avx2 microkernel is 4x16");

    /// Software-prefetch distance in `kk` steps.
    const PREFETCH_K: usize = 8;

    /// AVX2+FMA tile; same contract as the portable
    /// [`super::portable_tile`]. FMA contracts each multiply-add to a
    /// single rounding, so outputs may differ from the portable tile by a
    /// few ULP (bounded by the accumulation length; see the parity
    /// proptests).
    ///
    /// # Safety
    /// `t` satisfies the [`Tile`] contract, with `rows <= MR`,
    /// `width <= NR`. CPU support is not the caller's to promise: `_isa`
    /// exists only if detection saw `avx2` and `fma`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile(_isa: Avx2Fma, t: &Tile) {
        debug_assert!(t.rows <= MR && t.width <= NR);
        // SAFETY: the caller's contract is `body`'s.
        unsafe {
            if t.width == NR {
                body::<true>(t)
            } else {
                body::<false>(t)
            }
        }
    }

    /// [`tile`]; `FULL` moves B's rows and C's row segments unmasked.
    ///
    /// # Safety
    /// As [`tile`], and `FULL` only when `width == NR`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[expect(
        clippy::needless_range_loop,
        reason = "zip/enumerate adaptors are not inlined into a target-feature function, which then spills the accumulators"
    )]
    unsafe fn body<const FULL: bool>(t: &Tile) {
        let rows = t.a_rows();
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let width = t.width as i32;
        let m0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(width), lane);
        let m1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(width - 8), lane);
        let direct = t.c_cs == 1;
        // SAFETY: A is read at rows `rows[..MR]` and columns below `k`; B
        // at rows below `k` and (unmasked) columns below `width`; C only
        // at the tile's `rows`×`width` elements, through the masks when
        // read in place and through `buf` otherwise. A second half's
        // address is formed with `wrapping_add` because a narrow fringe
        // may place it past the end of B or C, where the mask touches
        // nothing.
        unsafe {
            let load = |p: *const f32, mask| {
                if FULL {
                    _mm256_loadu_ps(p)
                } else {
                    _mm256_maskload_ps(p, mask)
                }
            };
            let mut c = [[_mm256_setzero_ps(); 2]; MR];
            if !t.first_k && direct {
                for r in 0..t.rows {
                    let cr = t.c.add(r * t.c_rs);
                    c[r] = [load(cr, m0), load(cr.wrapping_add(8), m1)];
                }
            } else if !t.first_k {
                let mut buf = [[0.0f32; NR]; MR];
                load_c(t, &mut buf);
                for r in 0..t.rows {
                    c[r] = [
                        _mm256_loadu_ps(buf[r].as_ptr()),
                        _mm256_loadu_ps(buf[r].as_ptr().add(8)),
                    ];
                }
            }
            for kk in 0..t.k {
                let bk = t.b.add(kk * t.ldb);
                // Prefetching past the end of B is harmless at the
                // hardware level; wrapping_add keeps the address
                // computation itself free of out-of-bounds-pointer UB.
                _mm_prefetch(
                    t.b.wrapping_add((kk + PREFETCH_K) * t.ldb) as *const i8,
                    _MM_HINT_T0,
                );
                let (b0, b1) = (load(bk, m0), load(bk.wrapping_add(8), m1));
                let ak = t.a.add(kk * t.a_cs);
                for r in 0..MR {
                    let av = _mm256_broadcast_ss(&*ak.add(rows[r]));
                    c[r][0] = _mm256_fmadd_ps(av, b0, c[r][0]);
                    c[r][1] = _mm256_fmadd_ps(av, b1, c[r][1]);
                }
            }
            if direct {
                for r in 0..t.rows {
                    let cr = t.c.add(r * t.c_rs);
                    if FULL {
                        _mm256_storeu_ps(cr, c[r][0]);
                        _mm256_storeu_ps(cr.add(8), c[r][1]);
                    } else {
                        _mm256_maskstore_ps(cr, m0, c[r][0]);
                        _mm256_maskstore_ps(cr.wrapping_add(8), m1, c[r][1]);
                    }
                }
            } else {
                let mut buf = [[0.0f32; NR]; MR];
                for r in 0..t.rows {
                    _mm256_storeu_ps(buf[r].as_mut_ptr(), c[r][0]);
                    _mm256_storeu_ps(buf[r].as_mut_ptr().add(8), c[r][1]);
                }
                store_c(t, &buf);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    //! Explicit AVX-512F implementation of the register tile.
    //!
    //! The tile is `8`×`32`: 16 ZMM accumulators (8 rows × 2 vectors of
    //! 16 `f32` lanes), 2 B-row loads and 8 A broadcasts per `kk` step —
    //! 19 live ZMM registers of the 32 architectural ones. A panel at most
    //! 16 columns wide runs on the first vector alone. B's column fringe
    //! is two `__mmask16` masks on its loads; a C read in place (unit
    //! column stride) is loaded and stored through the same masks, and a
    //! C the tile is transposed into moves through a stack copy.
    //!
    //! Per output element the accumulation is one FMA per `kk` in
    //! ascending order — the **same** single-rounding sequence as the
    //! AVX2 kernel — so the two produce bit-identical results (asserted
    //! by the cross-ISA proptests).

    use super::{load_c, store_c, Avx512, Tile, MR_MAX, NR_MAX};
    use std::arch::x86_64::*;

    // The body below is written for exactly this tile shape.
    const _: () = assert!(MR_MAX == 8 && NR_MAX == 32, "avx512 microkernel is 8x32");

    /// Software-prefetch distance in `kk` steps.
    const PREFETCH_K: usize = 8;

    /// Compute one tile.
    ///
    /// # Safety
    /// `t` satisfies the [`Tile`] contract, with `rows <= MR_MAX`,
    /// `width <= NR_MAX`. CPU support is not the caller's to promise:
    /// `_isa` exists only if detection saw `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile(_isa: Avx512, t: &Tile) {
        debug_assert!(t.rows <= MR_MAX && t.width <= NR_MAX);
        // SAFETY: the caller's contract is `body`'s.
        unsafe {
            if t.width > 16 {
                body::<2>(t)
            } else {
                body::<1>(t)
            }
        }
    }

    /// [`tile`] on `H` 16-lane vectors per row.
    ///
    /// # Safety
    /// As [`tile`], and `width <= 16·H`.
    #[target_feature(enable = "avx512f")]
    #[expect(
        clippy::needless_range_loop,
        reason = "zip/enumerate adaptors are not inlined into a target-feature function, which then spills the accumulators"
    )]
    unsafe fn body<const H: usize>(t: &Tile) {
        let mask = |lanes: usize| ((1u32 << lanes.min(16)) - 1) as __mmask16;
        let masks = [mask(t.width), mask(t.width.saturating_sub(16))];
        let rows = t.a_rows();
        let direct = t.c_cs == 1;
        // SAFETY: A is read at rows `rows[..]` and columns below `k`; B at
        // rows below `k`, vector `h` only when `width > 16·h` (so its
        // address is inside the row), lanes past `width` masked; C only
        // at the tile's `rows`×`width` elements, through the masks when
        // read in place and through `buf` otherwise.
        unsafe {
            let mut acc = [[_mm512_setzero_ps(); H]; MR_MAX];
            if !t.first_k && direct {
                for r in 0..t.rows {
                    for h in 0..H {
                        acc[r][h] = _mm512_maskz_loadu_ps(masks[h], t.c.add(r * t.c_rs + 16 * h));
                    }
                }
            } else if !t.first_k {
                let mut buf = [[0.0f32; NR_MAX]; MR_MAX];
                load_c(t, &mut buf);
                for r in 0..t.rows {
                    for h in 0..H {
                        acc[r][h] = _mm512_loadu_ps(buf[r].as_ptr().add(16 * h));
                    }
                }
            }
            let mut b = [_mm512_setzero_ps(); H];
            for kk in 0..t.k {
                let bk = t.b.add(kk * t.ldb);
                // Prefetching past the end of B is harmless at the
                // hardware level; wrapping_add keeps the address
                // computation itself free of out-of-bounds-pointer UB.
                _mm_prefetch(
                    t.b.wrapping_add((kk + PREFETCH_K) * t.ldb) as *const i8,
                    _MM_HINT_T0,
                );
                for h in 0..H {
                    b[h] = _mm512_maskz_loadu_ps(masks[h], bk.add(16 * h));
                }
                let ak = t.a.add(kk * t.a_cs);
                for r in 0..MR_MAX {
                    let av = _mm512_set1_ps(*ak.add(rows[r]));
                    for h in 0..H {
                        acc[r][h] = _mm512_fmadd_ps(av, b[h], acc[r][h]);
                    }
                }
            }
            if direct {
                for r in 0..t.rows {
                    for h in 0..H {
                        _mm512_mask_storeu_ps(t.c.add(r * t.c_rs + 16 * h), masks[h], acc[r][h]);
                    }
                }
            } else {
                let mut buf = [[0.0f32; NR_MAX]; MR_MAX];
                for r in 0..t.rows {
                    for h in 0..H {
                        _mm512_storeu_ps(buf[r].as_mut_ptr().add(16 * h), acc[r][h]);
                    }
                }
                store_c(t, &buf);
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

    /// Register-tile geometry `(mr, nr)` of this kernel: rows of the
    /// broadcast side per microkernel invocation × columns of the vector
    /// side. A panel pack matches the **active** kernel's geometry.
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

/// Run one tile on `kernel`.
///
/// # Safety
/// `t` satisfies the [`Tile`] contract within `kernel`'s geometry.
#[inline(always)]
unsafe fn run_tile(kernel: MicrokernelKind, t: &Tile) {
    // SAFETY: the caller's contract; each SIMD arm holds its ISA proof.
    unsafe {
        match kernel {
            #[cfg(target_arch = "x86_64")]
            MicrokernelKind::Avx512(isa) => avx512::tile(isa, t),
            #[cfg(target_arch = "x86_64")]
            MicrokernelKind::Avx2Fma(isa) => avx2::tile(isa, t),
            _ => portable_tile(t),
        }
    }
}

/// Shared tiled GEMM driver: `out = opA(A) @ opB(B)` with `out` of shape
/// `(m, n)` and inner dimension `k`. Picks which operand the tiles
/// broadcast and which they vectorise, packs the one operand an `nt`
/// product cannot read in place (the smaller), then splits C's rows
/// across the worker pool; each worker walks the GEBP loop nest
/// `jc (NC) → k0 (KC) → row block (mr) → panel (nr)` over its part.
///
/// When A is the packed operand the tiles compute `Cᵀ = B·Aᵀ`: rows of
/// that view are C's columns, so a worker owning C's rows `r0..` owns
/// the view's columns `r0..` and writes its tiles back transposed.
///
/// Per output element the accumulation order is: ascending `k0` blocks,
/// one `f32` store/reload of the partial between blocks, one FMA (or
/// mul+add on the portable tile) per `kk` inside a block. That order is
/// invariant under the blocking, the packing and the swap, so none of
/// them changes a bit of any result (see the module doc). Under
/// [`Start::Continue`] the first block reloads the partial too, so a
/// product cut along `k` into consecutive calls runs the same chain.
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
    start: Start,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // an empty sum; the loop nest below would leave `out` as it found it
        if start == Start::Zero {
            out.fill(0.0);
        }
        return;
    }
    // Resolve the microkernel once per call; the workers inherit the copy
    // (so a thread-local force_microkernel override on the caller covers
    // the whole parallel region), and any pack matches its geometry.
    let kernel = active_microkernel();
    let (mr, nr) = kernel.geometry();
    let mut pack = take_pack();
    let a_in_place = match a_layout {
        Layout::RowMajor => Broadcast {
            data: a,
            rs: k,
            cs: 1,
        },
        Layout::Transposed => Broadcast {
            data: a,
            rs: 1,
            cs: m,
        },
    };
    let (bcast, vector, swapped) = match Pack::rule(m, n, a_layout, b_layout) {
        Pack::Nothing => {
            let vector = Vector {
                data: b,
                ld: n,
                panel: nr,
            };
            (a_in_place, vector, false)
        }
        Pack::B => {
            pack_panels(b, k, n, nr, &mut pack);
            let vector = Vector {
                data: &pack,
                ld: nr,
                panel: k * nr,
            };
            (a_in_place, vector, false)
        }
        Pack::A => {
            // A is (m, k), B is (n, k): the view's broadcast side is B
            pack_panels(a, k, m, m, &mut pack);
            let bcast = Broadcast {
                data: b,
                rs: k,
                cs: 1,
            };
            let vector = Vector {
                data: &pack,
                ld: m,
                panel: nr,
            };
            (bcast, vector, true)
        }
    };
    let body = |r0: usize, chunk: &mut [f32]| {
        let c_rows = chunk.len() / n;
        // This worker's block of the view the tiles compute: rows
        // `i_base..i_base + iv`, columns `j_base..j_base + jv`, element
        // `(i, j)` at `chunk[i·c_rs + j·c_cs]` relative to the block.
        let (i_base, iv, j_base, jv, c_rs, c_cs) = if swapped {
            (0, n, r0, c_rows, 1, n)
        } else {
            (r0, c_rows, 0, n, n, 1)
        };
        let mut jc = 0usize;
        while jc < jv {
            let jc_end = (jc + NC).min(jv);
            let mut k0 = 0usize;
            while k0 < k {
                let klen = KC.min(k - k0);
                let mut i0 = 0usize;
                while i0 < iv {
                    let rows = mr.min(iv - i0);
                    let a_tile = &bcast.data[(i_base + i0) * bcast.rs + k0 * bcast.cs..];
                    let mut j0 = jc;
                    while j0 < jc_end {
                        let width = nr.min(jv - j0);
                        // A panel pack starts its panels at multiples of
                        // nr, and so does j0 when j_base is 0 — always,
                        // unless the view is the swap's, read in place.
                        let j = j_base + j0;
                        let b_tile =
                            &vector.data[(j / nr) * vector.panel + j % nr + k0 * vector.ld..];
                        let tile = Tile {
                            k: klen,
                            a: a_tile.as_ptr(),
                            a_rs: bcast.rs,
                            a_cs: bcast.cs,
                            b: b_tile.as_ptr(),
                            ldb: vector.ld,
                            c: chunk[i0 * c_rs + j0 * c_cs..].as_mut_ptr(),
                            c_rs,
                            c_cs,
                            rows,
                            width,
                            first_k: k0 == 0 && start == Start::Zero,
                        };
                        // SAFETY: the tile's A rows i_base + i0 + ..rows,
                        // its B columns j..j + width and its inner steps
                        // k0..k0 + klen lie inside the operands' shapes,
                        // which the strides above describe; its C block
                        // lies inside this worker's chunk of rows.
                        unsafe { run_tile(kernel, &tile) };
                        j0 += nr;
                    }
                    i0 += rows;
                }
                k0 += klen;
            }
            jc = jc_end;
        }
    };
    if m * k * n >= PAR_THRESHOLD {
        par_chunks_mut(out, n, body);
    } else {
        body(0, out);
    }
    put_pack(pack);
}

/// Naive ikj-ordered `C = A @ B` — reference kernel for the parity tests
/// and the baseline the tiled path is benchmarked against.
pub fn matmul_nn_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_nn_naive_into(a.into(), b.into(), out.as_mut_slice(), Start::Zero);
    out
}

fn matmul_nn_naive_into(a: RowBlock, b: RowBlock, out: &mut [f32], start: Start) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if start == Start::Zero {
        out.fill(0.0);
    }
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
    matmul_nt_naive_into(a.into(), b.into(), out.as_mut_slice(), Start::Zero);
    out
}

fn matmul_nt_naive_into(a: RowBlock, b: RowBlock, out: &mut [f32], start: Start) {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    for r in 0..m {
        let a_row = &a.as_slice()[r * k..(r + 1) * k];
        let out_row = &mut out[r * n..(r + 1) * n];
        for (c, o) in out_row.iter_mut().enumerate() {
            let b_row = &b.as_slice()[c * k..(c + 1) * k];
            let mut acc = match start {
                Start::Zero => 0.0f32,
                Start::Continue => *o,
            };
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
    matmul_tn_naive_into(a.into(), b.into(), out.as_mut_slice(), Start::Zero);
    out
}

fn matmul_tn_naive_into(a: RowBlock, b: RowBlock, out: &mut [f32], start: Start) {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    if start == Start::Zero {
        out.fill(0.0);
    }
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
    let (m, k) = a_layout.oriented(a.into());
    let n = b_layout.oriented(b.into()).1;
    let mut out = Matrix::zeros(m, n);
    let path = GemmPath::for_product(m, k, n);
    matmul_into_on(
        path,
        a.into(),
        a_layout,
        b.into(),
        b_layout,
        out.as_mut_slice(),
        Start::Zero,
    );
    out
}

/// `Cᵀ` of the `nt` product `C = A[..m] · Bᵀ`, for the candidate-major
/// layout generation samples from: `A` is `width × k` (its rows past `m`
/// pad it, zeros for the caller), `B` is `n × k`, and the result is the
/// `n × width` matrix `B · Aᵀ`. It runs on the loop nest
/// [`matmul_nt`] takes for the unpadded `m × k × n` product, and every
/// loop nest computes an element as one chain over ascending `k` of
/// products whose factors' order does not change them, so column `i < m`
/// holds the bits of row `i` of `matmul_nt(A[..m], B)`
/// (`matmul_nt_transposed_is_the_transpose`). Nothing is written back
/// transposed: the tiles pack `A`'s `width` rows as their vector side
/// and broadcast `B`'s rows in place.
///
/// # Panics
/// If `m > a.rows()` or the inner dimensions disagree.
pub fn matmul_nt_transposed(a: &Matrix, m: usize, b: RowBlock) -> Matrix {
    assert!(
        m <= a.rows(),
        "matmul_nt_transposed: {m} rows of {}",
        a.rows()
    );
    let mut out = Matrix::zeros(b.rows(), a.rows());
    matmul_into_on(
        GemmPath::for_product(m, a.cols(), b.rows()),
        b,
        Layout::RowMajor,
        a.into(),
        Layout::Transposed,
        out.as_mut_slice(),
        Start::Zero,
    );
    out
}

/// `out = op(A) @ op(B)`, each operand read in its [`Layout`], into a
/// pre-shaped row-major `out` (`m × n`), on a loop nest the caller chose,
/// each sum starting where `start` says: the one body of [`matmul_nn`],
/// [`matmul_nt`] and [`matmul_tn`]. A one-column row-major product takes
/// the private `matvec`.
///
/// Under [`Start::Continue`] every path runs the chain one call over the
/// whole of `k` runs, so cutting a product along `k` into consecutive
/// calls changes no bit of it (proptested): an op that accumulates a
/// product block by block keeps the bits of the whole product
/// ([`crate::tape::Tape::score_xent`]'s `∂W_c`).
///
/// # Panics
/// If the inner dimensions disagree, if `out` does not hold `m × n`
/// values, or if both operands are [`Layout::Transposed`] on the naive
/// path (no product reads them so).
pub fn matmul_into_on(
    path: GemmPath,
    a: RowBlock,
    a_layout: Layout,
    b: RowBlock,
    b_layout: Layout,
    out: &mut [f32],
    start: Start,
) {
    let ((m, k), (kb, n)) = (a_layout.oriented(a), b_layout.oriented(b));
    assert_eq!(
        k, kb,
        "matmul: inner dim mismatch, op(A) is {m}x{k} and op(B) is {kb}x{n}"
    );
    assert_eq!(out.len(), m * n, "matmul_into_on: output is not {m}x{n}");
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    match (path, a_layout, b_layout) {
        (_, Layout::RowMajor, Layout::RowMajor) if n == 1 => {
            matvec(path, a_data, b_data, out, start)
        }
        (GemmPath::Tiled, ..) => gemm(out, m, k, n, a_data, a_layout, b_data, b_layout, start),
        (GemmPath::Naive, Layout::RowMajor, Layout::RowMajor) => {
            matmul_nn_naive_into(a, b, out, start)
        }
        (GemmPath::Naive, Layout::RowMajor, Layout::Transposed) => {
            matmul_nt_naive_into(a, b, out, start)
        }
        (GemmPath::Naive, Layout::Transposed, Layout::RowMajor) => {
            matmul_tn_naive_into(a, b, out, start)
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
fn matvec(path: GemmPath, a: &[f32], b: &[f32], out: &mut [f32], start: Start) {
    match (path, active_microkernel()) {
        (GemmPath::Naive, _) => matvec_rows(a, b, out, start, |acc, av, bv| {
            if av == 0.0 {
                acc
            } else {
                acc + av * bv
            }
        }),
        (GemmPath::Tiled, MicrokernelKind::Portable) => {
            matvec_rows(a, b, out, start, |acc, av, bv| acc + av * bv)
        }
        (GemmPath::Tiled, MicrokernelKind::Avx2Fma(_) | MicrokernelKind::Avx512(_)) => {
            matvec_rows(a, b, out, start, |acc, av, bv| av.mul_add(bv, acc))
        }
    }
}

/// [`matvec`]'s row walk: `out[r] = fold(step, s, a[r, ..] · b)` with
/// `s` the start `start` names and eight rows' chains in flight, so the
/// adds of one row overlap the others' instead of waiting on each other.
#[inline(always)]
fn matvec_rows(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    start: Start,
    step: impl Fn(f32, f32, f32) -> f32,
) {
    const CHAINS: usize = 8;
    let k = b.len();
    assert_eq!(a.len(), out.len() * k, "matvec: operand shapes");
    let init = |o: f32| match start {
        Start::Zero => 0.0,
        Start::Continue => o,
    };
    if k == 0 {
        return out.iter_mut().for_each(|o| *o = init(*o));
    }
    let mut blocks = out.chunks_exact_mut(CHAINS);
    let mut a_blocks = a.chunks_exact(CHAINS * k);
    for (block, rows) in (&mut blocks).zip(&mut a_blocks) {
        let rows: [&[f32]; CHAINS] = std::array::from_fn(|i| &rows[i * k..][..k]);
        let mut acc: [f32; CHAINS] = std::array::from_fn(|i| init(block[i]));
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
            .fold(init(*o), |acc, (&av, &bv)| step(acc, av, bv));
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
