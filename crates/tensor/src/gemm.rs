//! General matrix multiplication kernels with runtime SIMD dispatch.
//!
//! Three element types share one kernel structure: an `f32` GEMM used by the
//! reference im2col convolution, the training substrate and the tap-major
//! Winograd pipeline; an `i8 × i8 → i32` GEMM that mirrors the Cube Unit of
//! the accelerator (Section IV-A of the paper: int8 operands, int32
//! accumulators); and an `i16 × i16 → i32` GEMM for Winograd-domain codes
//! wider than 8 bits (the paper's `int8/10` configurations).
//!
//! # One compute driver over packed panels
//!
//! Every product runs through [`sweep_panels`]: the left operand arrives as
//! `MR`-row panels, the right operand as `NR`-wide column panels, both
//! zero-padded to the register block and `K`-grouped for the active
//! microkernel (`A[kg][row][g]`, `B[jb][kg][col][g]`, `G ∈ {1, 2, 4}`
//! consecutive `k` steps interleaved so the ISA's widening dot-product
//! instructions read them contiguously). Who *produces* the panels is the
//! caller's business:
//!
//! * **Packed-once weight operand** — [`PackedWeights`] lays a constant
//!   integer matrix out once ([`PackedWeights::pack_left`] as the `A` side,
//!   [`PackedWeights::pack_right`] as the `B` side), and
//!   [`gemm_packed_i32_into`] multiplies it against an activation panel the
//!   caller has *already written in panel layout*
//!   ([`PackedWeights::act_layout`] names it; the Winograd input transform
//!   quantizes straight into it through
//!   [`PackedCode::quantize_into_panel`]). Nothing is packed per call. The
//!   integer tap-major Winograd pipeline runs this way: weights packed at
//!   `IntWinogradConv::prepare`, `i8` codes at ≤ 8 Winograd-domain bits,
//!   `i16` above.
//! * **Pack-per-call** — the slice entry points `gemm_*_into` take plain
//!   row-major operands and are pack-then-compute over the same driver: the
//!   integer ones pack both operands into thread-parked panels and sweep
//!   once; `f32` additionally blocks `K` by [`BLOCK_K`] so the packed `B`
//!   block stays bounded. The `Tensor` wrappers ([`gemm_f32`],
//!   [`gemm_i8_i32`]) hand each worker thread **one** row chunk, so `B` is
//!   packed once per `K` block per thread.
//! * **Prepared `f32` convolution** — [`crate::im2col::PreparedGemmConv`]
//!   packs a layer's weights once as the left operand in exactly the
//!   per-[`BLOCK_K`] row-panel layout the pack-per-call `f32` product builds
//!   on its stack, gathers the activations straight into the thread-parked
//!   `B` panel and calls [`sweep_f32`] on column blocks of the NCHW output
//!   (`C` is a strided view: `ldc` is the image's pixel count).
//!
//! # Direct-to-`C` contract
//!
//! A microkernel accumulates a full `MR × NR` tile in registers and **stores**
//! it at `c + r · ldc`; it never reads `C`. For an interior tile of the first
//! (or only) `K` block the driver passes `C` itself, so the accumulators land
//! in the output once — no cleared `C`, no stack tile, no `+=` pass. Ragged
//! edge tiles and the later `K` blocks of an `f32` product go through a stack
//! tile that the driver copies or adds into the valid region (the add keeps
//! the `f32` summation order — block sum from zero, then `C += block` —
//! exactly what it was when every tile took that detour).
//!
//! # Who owns the sign offset
//!
//! `vpdpbusd` (AVX-512 VNNI) multiplies unsigned × signed. Under that variant
//! the **activation** operand — the one that is *not* [`PackedWeights`] — is
//! stored as `u8 = code ^ 0x80` by whoever writes its panel
//! ([`PackedWeights::act_flip`] says so; `quantize_into_panel` applies it for
//! free), and the packed weights carry `−128 · Σ_k w` per output row (left) or
//! column (right), computed at pack time, which the kernel uses as its
//! accumulator *initial value*. The `K` loop itself contains nothing but the
//! dot-product instruction. The pack-per-call `i8` entry treats `B` as the
//! activation side: it flips the packed `B` panel and sums the rows of `A`
//! while packing. The paired-MAC (`vpmaddwd`), `sdot` and scalar kernels
//! multiply signed × signed and use neither.
//!
//! # Kernel variants
//!
//! The microkernel is chosen **per process** by [`crate::simd::active`]:
//! explicit `std::arch` kernels for x86-64 AVX2/FMA and AVX-512F/BW (plus an
//! AVX-512 VNNI tier) and for aarch64 NEON (plus a `sdot` tier), with portable
//! scalar Rust as the reference fallback (`WINO_FORCE_KERNEL=scalar` pins it).
//! The `*_into_with` twins and [`PackedWeights`]' constructors take an
//! explicit [`KernelVariant`] so tests and benchmarks can compare variants
//! inside one process; a variant foreign to the build architecture falls
//! back to scalar there (the global dispatch never selects one).
//!
//! The integer kernels are *paired-MAC* formulations: instead of widening
//! every 8/16-bit code to 32 bits before multiplying, they multiply natively
//! narrow lanes and let the ISA fold 2 or 4 `K` steps per operation —
//! `vpmaddwd` pairs two i16 products into an i32 (AVX2/AVX-512), `vpdpbusd`
//! quads four u8×i8 products, and NEON uses `smull`+`sadalp` pairs or `sdot`
//! quads. Every one produces bit-identical i32 sums to the scalar reference —
//! the saturation analysis lives on each kernel.
//!
//! `f32` additionally has a *thin* microkernel family: when `m ≤` [`MR_THIN`]
//! the driver switches to 4-row kernels with twice the column width (AVX2
//! 4×16, AVX-512 4×32, NEON 4×16), so a GEMM whose `M` dimension cannot fill
//! the standard 8-row block trades the dead rows for live columns. The float
//! channel-laned thin-layer Winograd formulation leans on this.
//!
//! There is deliberately no zero-skip branch in the inner loops — Winograd
//! and im2col operands are dense, and a data-dependent branch per multiply
//! defeats vectorization. The `Tensor` wrappers add row-chunk parallelism on
//! top ([`crate::parallel::parallel_chunks_mut`]); the slice kernels
//! themselves are sequential so callers already inside a parallel region
//! (the Winograd strip workers) can use them without nesting thread pools.

use crate::parallel::{max_threads, parallel_chunks_mut};
use crate::simd::{self, KernelVariant, PanelSlot};
use crate::tensor::Tensor;

/// Depth of the `K` blocking of every `f32` product.
pub(crate) const BLOCK_K: usize = 256;
/// Rows per packed `A` panel / standard microkernel tile.
const MR: usize = 8;
/// Columns per standard scalar/AVX2/NEON microkernel tile.
const NR: usize = 8;
/// `f32` calls with `m ≤ MR_THIN` use the 4-row wide-column kernel family.
pub const MR_THIN: usize = 4;

/// Convenience façade bundling the GEMM kernels behind one type.
///
/// ```
/// use wino_tensor::{Gemm, Tensor};
/// let a = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// let b = Tensor::from_vec(vec![1.0_f32, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
/// let c = Gemm::f32(&a, &b);
/// assert_eq!(c.as_slice(), a.as_slice());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Gemm;

impl Gemm {
    /// `f32` matrix product; see [`gemm_f32`].
    pub fn f32(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
        gemm_f32(a, b)
    }

    /// `i8 × i8 → i32` matrix product; see [`gemm_i8_i32`].
    pub fn i8(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i32> {
        gemm_i8_i32(a, b)
    }
}

/// Widening conversion from a GEMM operand type to its accumulator type.
trait Widen<A>: Copy {
    fn widen(self) -> A;
}

impl Widen<f32> for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }
}

impl Widen<i32> for i8 {
    #[inline(always)]
    fn widen(self) -> i32 {
        i32::from(self)
    }
}

impl Widen<i32> for i16 {
    #[inline(always)]
    fn widen(self) -> i32 {
        i32::from(self)
    }
}

/// Where a microkernel stores its `MR × NR` accumulator tile: row `r` goes to
/// `c + r · ldc`. `i0`/`j0` are the tile's coordinates in `C`, for kernels
/// that look up a per-row or per-column accumulator seed.
///
/// Only [`sweep_panels`] constructs one, and it guarantees `c` is valid for
/// `MR` rows of `NR` writes at stride `ldc`.
#[derive(Clone, Copy)]
struct Tile<A> {
    c: *mut A,
    ldc: usize,
    i0: usize,
    j0: usize,
}

/// Packs rows `i0..i0 + rows` × columns `k0..k0 + kc` of the row-major
/// `lda`-wide matrix `a` into one `MRP`-row panel `dst[(kg · MRP + r) · g +
/// gi]`, zero-padding the dead rows and the ragged last `K` group. `g` is a
/// kernel `K`-group width: 1, 2 or 4.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn pack_a_panel<T: Copy + Default, const MRP: usize>(
    dst: &mut [T],
    a: &[T],
    lda: usize,
    i0: usize,
    rows: usize,
    k0: usize,
    kc: usize,
    g: usize,
) {
    #[inline(always)]
    fn grouped<T: Copy + Default, const MRP: usize, const G: usize>(
        dst: &mut [T],
        a: &[T],
        lda: usize,
        i0: usize,
        rows: usize,
        k0: usize,
        kc: usize,
    ) {
        dst.fill(T::default());
        for r in 0..rows {
            let arow = &a[(i0 + r) * lda + k0..(i0 + r) * lda + k0 + kc];
            // Whole `K` groups move as one `G`-element copy each.
            let mut groups = arow.chunks_exact(G);
            for (kg, group) in groups.by_ref().enumerate() {
                let at = (kg * MRP + r) * G;
                dst[at..at + G].copy_from_slice(group);
            }
            let tail = groups.remainder();
            if !tail.is_empty() {
                let at = ((kc / G) * MRP + r) * G;
                dst[at..at + tail.len()].copy_from_slice(tail);
            }
        }
    }
    match g {
        1 => {
            // The panel's source rows, dead ones empty (read as zero).
            let src: [&[T]; MRP] = std::array::from_fn(|r| {
                if r < rows {
                    &a[(i0 + r) * lda + k0..(i0 + r) * lda + k0 + kc]
                } else {
                    &[]
                }
            });
            for (kk, drow) in dst.chunks_exact_mut(MRP).take(kc).enumerate() {
                for (d, row) in drow.iter_mut().zip(&src) {
                    *d = row.get(kk).copied().unwrap_or_default();
                }
            }
        }
        2 => grouped::<T, MRP, 2>(dst, a, lda, i0, rows, k0, kc),
        4 => grouped::<T, MRP, 4>(dst, a, lda, i0, rows, k0, kc),
        _ => unreachable!("K groups are 1, 2 or 4 wide"),
    }
}

/// Packs the whole row-major `m × k` matrix `a` into `⌈m / MR⌉` consecutive
/// [`pack_a_panel`] panels, each the full `K` deep — the integer kernels'
/// left operand (their `A` panels are all [`MR`] rows).
fn pack_a_panels<T: Copy + Default>(dst: &mut [T], a: &[T], m: usize, k: usize, g: usize) {
    let stride = k.div_ceil(g) * MR * g;
    for (ib, panel) in dst.chunks_exact_mut(stride.max(1)).enumerate() {
        let i0 = ib * MR;
        pack_a_panel::<_, MR>(panel, a, k, i0, MR.min(m - i0), 0, k, g);
    }
}

/// Packs rows `k0..k0 + kc` of the row-major `k × n` matrix `b` into
/// `nrp`-wide column panels `dst[((jb · kcg + kg) · nrp + j) · g + gi]`,
/// zero-padding the ragged last column block and the ragged last `K` group.
/// `g` is a kernel `K`-group width: 1, 2 or 4.
#[inline(always)]
fn pack_b_panels<T: Copy + Default>(
    dst: &mut [T],
    b: &[T],
    n: usize,
    k0: usize,
    kc: usize,
    nrp: usize,
    g: usize,
) {
    #[inline(always)]
    fn grouped<T: Copy + Default, const G: usize>(
        dst: &mut [T],
        b: &[T],
        n: usize,
        k0: usize,
        kc: usize,
        nrp: usize,
    ) {
        let kcg = kc.div_ceil(G);
        for jb in 0..n.div_ceil(nrp) {
            let j0 = jb * nrp;
            let cols = nrp.min(n - j0);
            for kg in 0..kcg {
                let base = (jb * kcg + kg) * nrp * G;
                let group = &mut dst[base..base + nrp * G];
                group.fill(T::default());
                for gi in 0..G.min(kc - kg * G) {
                    let kk = kg * G + gi;
                    let src = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + cols];
                    for (j, &v) in src.iter().enumerate() {
                        group[j * G + gi] = v;
                    }
                }
            }
        }
    }
    match g {
        1 => {
            for (jb, panel) in dst.chunks_exact_mut((kc * nrp).max(1)).enumerate() {
                let j0 = jb * nrp;
                let cols = nrp.min(n - j0);
                for (kk, row) in panel.chunks_exact_mut(nrp).enumerate() {
                    let src = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + cols];
                    row[..cols].copy_from_slice(src);
                    row[cols..].fill(T::default());
                }
            }
        }
        2 => grouped::<T, 2>(dst, b, n, k0, kc, nrp),
        4 => grouped::<T, 4>(dst, b, n, k0, kc, nrp),
        _ => unreachable!("K groups are 1, 2 or 4 wide"),
    }
}

/// The compute driver: `C[m × n] (+)= A · B` over packed panels, generic over
/// operand type, accumulator type, the microkernel's `MRP × NRP` register
/// block and its `K`-group width `G`.
///
/// `C` is a strided view: row `i` starts at `c[i · ldc]` and is `n ≤ ldc`
/// long (a dense product passes `ldc = n`; the prepared convolution passes a
/// column block of a wider output). `a_panels` holds `⌈m / MRP⌉` row panels
/// and `b_panels` `⌈n / NRP⌉` column panels, each `kcg` groups deep (see the
/// pack functions for the element order). `micro` is called once per `(row
/// panel, column panel)` pair with `(tile, a_panel, b_panel, kcg)` — the
/// last argument counts **groups**, not `k` steps — and must store the full
/// product tile at `tile` (see the module docs: interior tiles go straight
/// to `C` unless `accumulate`, which adds the product onto what `C` already
/// holds).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sweep_panels<T, A, const MRP: usize, const NRP: usize, const G: usize>(
    c: &mut [A],
    ldc: usize,
    m: usize,
    n: usize,
    kcg: usize,
    a_panels: &[T],
    b_panels: &[T],
    accumulate: bool,
    mut micro: impl FnMut(Tile<A>, &[T], &[T], usize),
) where
    A: Copy + Default + std::ops::AddAssign,
{
    let (a_stride, b_stride) = (kcg * MRP * G, kcg * NRP * G);
    assert!(n <= ldc, "sweep_panels: row stride");
    assert!(
        m == 0 || c.len() >= (m - 1) * ldc + n,
        "sweep_panels: C length"
    );
    // Panels are sliced by index (bounds-checked: a microkernel reads exactly
    // one stride of each) rather than chunked — chunking divides by the
    // runtime stride, which a tiny product would notice.
    for i0 in (0..m).step_by(MRP) {
        let a_panel = &a_panels[i0 / MRP * a_stride..(i0 / MRP + 1) * a_stride];
        let rows = MRP.min(m - i0);
        for j0 in (0..n).step_by(NRP) {
            let b_panel = &b_panels[j0 / NRP * b_stride..(j0 / NRP + 1) * b_stride];
            let cols = NRP.min(n - j0);
            if rows == MRP && cols == NRP && !accumulate {
                // The tile's last element is `(i0 + MRP − 1) · ldc + j0 + NRP
                // − 1 ≤ (m − 1) · ldc + n − 1 < c.len()` because `i0 + MRP ≤
                // m` and `j0 + NRP ≤ n`.
                let tile = Tile {
                    c: c[i0 * ldc + j0..].as_mut_ptr(),
                    ldc,
                    i0,
                    j0,
                };
                micro(tile, a_panel, b_panel, kcg);
            } else {
                let mut edge = [[A::default(); NRP]; MRP];
                let tile = Tile {
                    c: edge.as_mut_ptr().cast::<A>(),
                    ldc: NRP,
                    i0,
                    j0,
                };
                micro(tile, a_panel, b_panel, kcg);
                for (r, erow) in edge.iter().enumerate().take(rows) {
                    let crow = &mut c[(i0 + r) * ldc + j0..(i0 + r) * ldc + j0 + cols];
                    if accumulate {
                        for (cv, ev) in crow.iter_mut().zip(erow) {
                            *cv += *ev;
                        }
                    } else {
                        crow.copy_from_slice(&erow[..cols]);
                    }
                }
            }
        }
    }
}

/// The pack-per-call `f32` product: `K` is blocked by [`BLOCK_K`], each
/// block's `B` rows are packed into the thread-parked panel, each row panel
/// of `A` into a stack panel, and [`sweep_f32`] multiplies them — storing
/// the first block, adding the later ones.
fn pack_and_sweep_f32(
    variant: KernelVariant,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let thin = m <= MR_THIN;
    let (mrp, nrp) = f32_block(variant, thin);
    // Sized for the widest (MR-row) family; thin kernels use a prefix.
    let mut apack = [0.0_f32; MR * BLOCK_K];
    with_f32_b_panel(BLOCK_K.min(k) * n.next_multiple_of(nrp), |bpack_store| {
        for k0 in (0..k).step_by(BLOCK_K) {
            let kc = (k0 + BLOCK_K).min(k) - k0;
            let bpack = &mut bpack_store[..kc * n.next_multiple_of(nrp)];
            pack_b_panels(bpack, b, n, k0, kc, nrp, 1);
            for i0 in (0..m).step_by(mrp) {
                let rows = mrp.min(m - i0);
                let a_panel = &mut apack[..kc * mrp];
                pack_a_panel_f32(thin, a_panel, a, k, i0, rows, k0, kc);
                let c_rows = &mut c[i0 * n..(i0 + rows) * n];
                sweep_f32(
                    variant,
                    thin,
                    c_rows,
                    n,
                    rows,
                    n,
                    kc,
                    a_panel,
                    bpack,
                    k0 > 0,
                );
            }
        }
    });
}

/// [`pack_a_panel`] for one row panel of an `f32` left operand, in the row
/// count of the thin or the standard kernel family (see [`f32_block`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn pack_a_panel_f32(
    thin: bool,
    dst: &mut [f32],
    a: &[f32],
    lda: usize,
    i0: usize,
    rows: usize,
    k0: usize,
    kc: usize,
) {
    if thin {
        pack_a_panel::<_, MR_THIN>(dst, a, lda, i0, rows, k0, kc, 1);
    } else {
        pack_a_panel::<_, MR>(dst, a, lda, i0, rows, k0, kc, 1);
    }
}

/// Runs `f` on the first `len` elements of this thread's parked `f32` `B`
/// panel, growing it on first use — repeated products (one per Winograd tap,
/// one per convolution column block) stay allocation-free. The contents are
/// whatever the previous user left.
///
/// # Panics
///
/// Panics if `f` re-enters (the panel is borrowed for the whole call).
pub(crate) fn with_f32_b_panel<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    thread_local! {
        static B_PANEL: std::cell::RefCell<Vec<f32>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    B_PANEL.with(|cell| {
        let store = &mut *cell.borrow_mut();
        if store.len() < len {
            store.resize(len, 0.0);
        }
        f(&mut store[..len])
    })
}

/// The portable reference microkernel: a plain `MRP × NRP` multiply-accumulate
/// sweep the compiler autovectorizes. Every SIMD variant is equivalence-tested
/// against this.
#[inline(always)]
fn scalar_micro<T, A, const MRP: usize, const NRP: usize>(
    tile: Tile<A>,
    ap: &[T],
    bp: &[T],
    kc: usize,
) where
    T: Widen<A>,
    A: Copy + Default + std::ops::AddAssign + std::ops::Mul<Output = A>,
{
    let mut acc = [[A::default(); NRP]; MRP];
    for kk in 0..kc {
        let a_row: &[T; MRP] = ap[kk * MRP..].first_chunk().unwrap();
        let b_row: &[T; NRP] = bp[kk * NRP..].first_chunk().unwrap();
        for r in 0..MRP {
            let av = a_row[r].widen();
            for j in 0..NRP {
                acc[r][j] += av * b_row[j].widen();
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        // SAFETY: `sweep_panels` hands out tiles valid for `MRP` rows of
        // `NRP` elements at stride `ldc`.
        unsafe { std::ptr::copy_nonoverlapping(row.as_ptr(), tile.c.add(r * tile.ldc), NRP) };
    }
}

/// Element count of the thread-parked packed `B` panel a `k × n` `f32` GEMM
/// uses under `variant` with an `m`-row left operand — exposed so scratch
/// accounting can include the GEMM panel footprint.
pub fn gemm_f32_b_panel_elems(variant: KernelVariant, m: usize, k: usize, n: usize) -> usize {
    BLOCK_K.min(k.max(1)) * n.next_multiple_of(f32_block(variant, m <= MR_THIN).1)
}

/// Element count of the packed `B` panel of a `k × n` `i8` GEMM under
/// `variant` — the whole of `K`, padded to the kernel's `K` group and column
/// width. This is what [`gemm_i8_i32_into_with`] parks per thread, and the
/// size of the activation panel a left-packed [`PackedWeights`] multiplies.
pub fn gemm_i8_b_panel_elems(variant: KernelVariant, k: usize, n: usize) -> usize {
    <i8 as PackedCode>::layouts(variant).1.elems(k, n)
}

/// [`gemm_i8_b_panel_elems`] for the `i16` GEMM.
pub fn gemm_i16_b_panel_elems(variant: KernelVariant, k: usize, n: usize) -> usize {
    <i16 as PackedCode>::layouts(variant).1.elems(k, n)
}

/// `(K-group, N width)` of the `i8` microkernel a variant dispatches to —
/// must mirror [`PackedCode::sweep`].
fn i8_layout(variant: KernelVariant) -> (usize, usize) {
    match variant {
        KernelVariant::Avx2 if cfg!(target_arch = "x86_64") => (2, NR),
        KernelVariant::Avx512 if cfg!(target_arch = "x86_64") => (2, 16),
        KernelVariant::Avx512Vnni if cfg!(target_arch = "x86_64") => (4, 16),
        KernelVariant::Neon if cfg!(target_arch = "aarch64") => (2, NR),
        KernelVariant::NeonDot if cfg!(target_arch = "aarch64") => (4, NR),
        _ => (1, NR),
    }
}

/// `(K-group, N width)` of the `i16` microkernel a variant dispatches to —
/// must mirror [`PackedCode::sweep`].
fn i16_layout(variant: KernelVariant) -> (usize, usize) {
    match variant {
        KernelVariant::Avx2 if cfg!(target_arch = "x86_64") => (2, NR),
        KernelVariant::Avx512 | KernelVariant::Avx512Vnni if cfg!(target_arch = "x86_64") => {
            (2, 16)
        }
        _ => (1, NR),
    }
}

/// The `(MR, NR)` register block of the `f32` microkernel family `variant`
/// dispatches to — the thin 4-row family for a left operand of at most
/// [`MR_THIN`] rows, the 8-row one otherwise. Must mirror [`sweep_f32`]. The
/// VNNI and `sdot` tiers add nothing for `f32` and share the AVX-512 / NEON
/// kernels.
pub(crate) fn f32_block(variant: KernelVariant, thin: bool) -> (usize, usize) {
    let wide = match variant {
        KernelVariant::Avx512 | KernelVariant::Avx512Vnni if cfg!(target_arch = "x86_64") => 16,
        KernelVariant::Avx2 if cfg!(target_arch = "x86_64") => NR,
        KernelVariant::Neon | KernelVariant::NeonDot if cfg!(target_arch = "aarch64") => NR,
        _ => return (if thin { MR_THIN } else { MR }, NR),
    };
    if thin {
        (MR_THIN, 2 * wide)
    } else {
        (MR, wide)
    }
}

/// [`sweep_panels`] with `variant`'s `f32` microkernel: `C[m × n] (+)= A · B`
/// over `kc`-deep panels in the [`f32_block`] geometry of `(variant, thin)`,
/// `C` a strided view of row stride `ldc`. Every kernel runs one sequential
/// `k` chain of fused multiply-adds per output element (the scalar kernel a
/// multiply then an add), so the bits depend on the variant but not on the
/// family, the blocking or which operand is which.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_f32(
    variant: KernelVariant,
    thin: bool,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    n: usize,
    kc: usize,
    ap: &[f32],
    bp: &[f32],
    accumulate: bool,
) {
    match variant {
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx2 if thin => {
            sweep_panels::<_, _, 4, 16, 1>(c, ldc, m, n, kc, ap, bp, accumulate, |t, a, b, kc| {
                // SAFETY: the caller-selected variant was feature-checked
                // (dispatch or the `_with` contract); `t` comes from
                // `sweep_panels`.
                unsafe { x86::f32_4x16_avx2(t.c, t.ldc, a, b, kc) }
            })
        }
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx2 => {
            sweep_panels::<_, _, 8, 8, 1>(c, ldc, m, n, kc, ap, bp, accumulate, |t, a, b, kc| {
                // SAFETY: as above.
                unsafe { x86::f32_8x8_avx2(t.c, t.ldc, a, b, kc) }
            })
        }
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx512 | KernelVariant::Avx512Vnni if thin => {
            sweep_panels::<_, _, 4, 32, 1>(c, ldc, m, n, kc, ap, bp, accumulate, |t, a, b, kc| {
                // SAFETY: as above.
                unsafe { x86::f32_4x32_avx512(t.c, t.ldc, a, b, kc) }
            })
        }
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx512 | KernelVariant::Avx512Vnni => {
            sweep_panels::<_, _, 8, 16, 1>(c, ldc, m, n, kc, ap, bp, accumulate, |t, a, b, kc| {
                // SAFETY: as above.
                unsafe { x86::f32_8x16_avx512(t.c, t.ldc, a, b, kc) }
            })
        }
        #[cfg(target_arch = "aarch64")]
        KernelVariant::Neon | KernelVariant::NeonDot if thin => {
            sweep_panels::<_, _, 4, 16, 1>(c, ldc, m, n, kc, ap, bp, accumulate, |t, a, b, kc| {
                // SAFETY: as above.
                unsafe { neon::f32_4x16_neon(t.c, t.ldc, a, b, kc) }
            })
        }
        #[cfg(target_arch = "aarch64")]
        KernelVariant::Neon | KernelVariant::NeonDot => {
            sweep_panels::<_, _, 8, 8, 1>(c, ldc, m, n, kc, ap, bp, accumulate, |t, a, b, kc| {
                // SAFETY: as above.
                unsafe { neon::f32_8x8_neon(t.c, t.ldc, a, b, kc) }
            })
        }
        _ if thin => sweep_panels::<_, _, MR_THIN, NR, 1>(
            c,
            ldc,
            m,
            n,
            kc,
            ap,
            bp,
            accumulate,
            scalar_micro::<f32, f32, MR_THIN, NR>,
        ),
        _ => sweep_panels::<_, _, MR, NR, 1>(
            c,
            ldc,
            m,
            n,
            kc,
            ap,
            bp,
            accumulate,
            scalar_micro::<f32, f32, MR, NR>,
        ),
    }
}

/// Shared slice-length checks of the `*_into` entry points. Returns whether
/// there is a product to compute; a degenerate one (`k == 0` with a
/// non-empty `C`) is zero-filled here.
#[inline]
fn check_dims<T, A: Copy + Default>(
    name: &str,
    c: &mut [A],
    a: &[T],
    b: &[T],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    assert_eq!(a.len(), m * k, "{name}: A length");
    assert_eq!(b.len(), k * n, "{name}: B length");
    assert_eq!(c.len(), m * n, "{name}: C length");
    if k == 0 {
        c.fill(A::default());
    }
    m > 0 && n > 0 && k > 0
}

/// `C[M×N] = A[M×K] · B[K×N]` on flat row-major `f32` slices, overwriting
/// `C`, using the process-wide [`crate::simd::active`] kernel variant. This
/// is the packed sequential kernel behind [`gemm_f32`] and the per-tap GEMMs
/// of the float tap-major Winograd pipeline.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_f32_into(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let _sp = gemm_span("gemm_f32", m, k, n);
    gemm_f32_into_with(simd::active(), c, a, b, m, k, n);
}

/// A full-detail kernel span for one GEMM call; the off-path is one relaxed
/// atomic load. The correlation id packs the problem shape
/// (`m << 40 | k << 20 | n`) so a trace viewer can tell tap GEMMs apart.
fn gemm_span(name: &'static str, m: usize, k: usize, n: usize) -> Option<wino_trace::Span> {
    if !wino_trace::full_enabled() {
        return None;
    }
    use std::sync::OnceLock;
    static F32_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
    static I8_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
    static I16_SYM: OnceLock<wino_trace::Sym> = OnceLock::new();
    let cell = match name {
        "gemm_f32" => &F32_SYM,
        "gemm_i8_i32" => &I8_SYM,
        _ => &I16_SYM,
    };
    let sym = *cell.get_or_init(|| wino_trace::intern(name));
    let id = ((m as u64) << 40) | ((k as u64) << 20) | n as u64;
    Some(wino_trace::span_full(sym, wino_trace::Category::Kernel, id))
}

/// [`gemm_f32_into`] with an explicit kernel variant — the equivalence-test
/// and benchmark entry point. A variant foreign to this build's architecture
/// runs the scalar kernels.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_f32_into_with(
    variant: KernelVariant,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if check_dims("gemm_f32_into", c, a, b, m, k, n) {
        pack_and_sweep_f32(variant, c, a, b, m, k, n);
    }
}

/// The panel geometry of one integer GEMM operand under a kernel variant:
/// `width` rows (an `A` panel) or columns (a `B` panel) per panel, `group`
/// consecutive `k` steps interleaved per row/column. Element `(kk, j)` of a
/// `k`-deep operand with free index `j` lives at [`PanelLayout::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelLayout {
    /// `K` steps interleaved per row/column (`G`).
    pub group: usize,
    /// Rows/columns per panel (`MR` or `NR`).
    pub width: usize,
}

impl PanelLayout {
    /// `K` groups of a `k`-deep operand (the last one zero-padded).
    pub fn k_groups(self, k: usize) -> usize {
        k.div_ceil(self.group)
    }

    /// Elements of the padded panels holding a `k`-deep operand with `free`
    /// rows (`A`) or columns (`B`).
    pub fn elems(self, k: usize, free: usize) -> usize {
        self.k_groups(k) * self.group * free.next_multiple_of(self.width)
    }

    /// Flat index of element `(kk, j)` in the panels of a `k`-deep operand.
    pub fn index(self, k: usize, kk: usize, j: usize) -> usize {
        let (base, slot) = self.slot(k, kk);
        base + slot.offset(j)
    }

    /// Where the lane row of `K` index `kk` (one value per free index `j`)
    /// lands: the panel offset of its `K` group, and the [`PanelSlot`] that
    /// spreads the `j`s from there — the destination
    /// [`PackedCode::quantize_into_panel`] writes through.
    pub fn slot(self, k: usize, kk: usize) -> (usize, PanelSlot) {
        let group_elems = self.width * self.group;
        (
            (kk / self.group) * group_elems,
            PanelSlot {
                width: self.width,
                group: self.group,
                chunk_stride: self.k_groups(k) * group_elems,
                g: kk % self.group,
            },
        )
    }

    /// Writes `codes[kk]` to element `(kk, j)` for every `kk` — the whole
    /// `K` extent of free index `j`, a producer laned over `K` (the
    /// channel-laned Winograd input transform) hands over at once. Each `K`
    /// group is one `group`-element copy.
    ///
    /// # Panics
    ///
    /// Panics if `panel` is shorter than [`PanelLayout::elems`] needs.
    pub fn write_k_lanes<T: Copy>(self, panel: &mut [T], j: usize, codes: &[T]) {
        fn groups<T: Copy, const G: usize>(dst: &mut [T], every: usize, codes: &[T]) {
            let whole = codes.chunks_exact(G);
            let tail = whole.remainder();
            for (d, s) in dst.chunks_mut(every).zip(whole) {
                d[..G].copy_from_slice(s);
            }
            if !tail.is_empty() {
                let last = (codes.len() / G) * every;
                dst[last..last + tail.len()].copy_from_slice(tail);
            }
        }
        let k = codes.len();
        let every = self.width * self.group;
        let from = (j / self.width) * self.k_groups(k) * every + (j % self.width) * self.group;
        let dst = &mut panel[from..];
        match self.group {
            1 => groups::<T, 1>(dst, every, codes),
            2 => groups::<T, 2>(dst, every, codes),
            4 => groups::<T, 4>(dst, every, codes),
            g => unreachable!("no kernel interleaves {g} K steps"),
        }
    }
}

mod sealed {
    /// How a variant's `vpdpbusd`-style kernel seeds its accumulators to
    /// cancel the activation operand's `+128` offset (see the module docs).
    #[derive(Debug, Clone, Copy)]
    pub enum SignCorr<'a> {
        /// Signed × signed kernel: nothing to cancel.
        None,
        /// `−128 · Σ_k a[i][k]` per row of `C` (activations on the `B` side).
        Rows(&'a [i32]),
        /// `−128 · Σ_k b[k][j]` per column of `C` (activations on the `A`
        /// side).
        Cols(&'a [i32]),
    }

    /// The crate-private half of [`super::PackedCode`]: the microkernel
    /// dispatch, which also seals the trait to `i8` and `i16`.
    pub trait Sealed: Sized {
        /// Runs [`super::sweep_panels`] with `variant`'s microkernel.
        #[allow(clippy::too_many_arguments)]
        fn sweep(
            variant: super::KernelVariant,
            c: &mut [i32],
            m: usize,
            n: usize,
            kcg: usize,
            a_panels: &[Self],
            b_panels: &[Self],
            corr: SignCorr<'_>,
        );
    }
}
use sealed::SignCorr;

/// An integer GEMM code type (`i8` or `i16`): its per-variant panel layouts,
/// its microkernel dispatch (sealed) and its panel-writing quantizer.
pub trait PackedCode: sealed::Sealed + Copy + Default + Send + Sync + 'static {
    /// The `(A, B)` panel layouts of `variant`'s microkernel.
    fn layouts(variant: KernelVariant) -> (PanelLayout, PanelLayout);

    /// Whether `variant`'s kernel multiplies unsigned × signed, i.e. wants
    /// the activation operand stored as `code ^ sign bit`.
    fn unsigned_activations(variant: KernelVariant) -> bool;

    /// `self ^ sign bit` — the unsigned-offset form of a code.
    fn flip(self) -> Self;

    /// The code widened to the accumulator type.
    fn to_i32(self) -> i32;

    /// `dst[slot.offset(j)] = quantize(src[j])` for every `j`: the tap-wise
    /// requantization of [`simd::quantize_i16_i16_panel_with`] (same
    /// expression, same bits), narrowed to this code type, optionally
    /// sign-flipped, and written straight into a GEMM panel by `variant`'s
    /// quantizer.
    #[allow(clippy::too_many_arguments)]
    fn quantize_into_panel(
        variant: KernelVariant,
        dst: &mut [Self],
        src: &[i16],
        scale: f32,
        lo: i32,
        hi: i32,
        flip: bool,
        slot: PanelSlot,
    );
}

impl PackedCode for i8 {
    fn layouts(variant: KernelVariant) -> (PanelLayout, PanelLayout) {
        let (group, nr) = i8_layout(variant);
        (
            PanelLayout { group, width: MR },
            PanelLayout { group, width: nr },
        )
    }

    fn unsigned_activations(variant: KernelVariant) -> bool {
        cfg!(target_arch = "x86_64") && variant == KernelVariant::Avx512Vnni
    }

    fn flip(self) -> Self {
        self ^ i8::MIN
    }

    fn to_i32(self) -> i32 {
        i32::from(self)
    }

    fn quantize_into_panel(
        variant: KernelVariant,
        dst: &mut [i8],
        src: &[i16],
        scale: f32,
        lo: i32,
        hi: i32,
        flip: bool,
        slot: PanelSlot,
    ) {
        simd::quantize_i16_i8_panel_with(variant, dst, src, scale, lo, hi, flip, slot);
    }
}

impl sealed::Sealed for i8 {
    fn sweep(
        variant: KernelVariant,
        c: &mut [i32],
        m: usize,
        n: usize,
        kcg: usize,
        ap: &[i8],
        bp: &[i8],
        corr: SignCorr<'_>,
    ) {
        match variant {
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx2 => {
                sweep_panels::<_, _, 8, 8, 2>(c, n, m, n, kcg, ap, bp, false, |t, a, b, kg| {
                    // SAFETY: the caller-selected variant was feature-checked;
                    // `t` comes from `sweep_panels`.
                    unsafe { x86::i8_8x8_madd_avx2(t.c, t.ldc, a, b, kg) }
                })
            }
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx512 => {
                sweep_panels::<_, _, 8, 16, 2>(c, n, m, n, kcg, ap, bp, false, |t, a, b, kg| {
                    // SAFETY: as above.
                    unsafe { x86::i8_8x16_madd_avx512(t.c, t.ldc, a, b, kg) }
                })
            }
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx512Vnni => match corr {
                SignCorr::Rows(rows) => {
                    assert!(rows.len() >= m.next_multiple_of(8), "row corrections");
                    sweep_panels::<_, _, 8, 16, 4>(c, n, m, n, kcg, ap, bp, false, |t, a, b, kg| {
                        // SAFETY: as above; `rows` covers every row panel.
                        unsafe { x86::i8_8x16_vnni_ub(t.c, t.ldc, a, b, kg, rows[t.i0..].as_ptr()) }
                    })
                }
                SignCorr::Cols(cols) => {
                    assert!(cols.len() >= n.next_multiple_of(16), "column corrections");
                    sweep_panels::<_, _, 8, 16, 4>(c, n, m, n, kcg, ap, bp, false, |t, a, b, kg| {
                        // SAFETY: as above; `cols` covers every column panel.
                        unsafe { x86::i8_8x16_vnni_ua(t.c, t.ldc, a, b, kg, cols[t.j0..].as_ptr()) }
                    })
                }
                SignCorr::None => unreachable!("the vnni kernels need their sign correction"),
            },
            #[cfg(target_arch = "aarch64")]
            KernelVariant::Neon => {
                sweep_panels::<_, _, 8, 8, 2>(c, n, m, n, kcg, ap, bp, false, |t, a, b, kg| {
                    // SAFETY: as above.
                    unsafe { neon::i8_8x8_pair_neon(t.c, t.ldc, a, b, kg) }
                })
            }
            #[cfg(target_arch = "aarch64")]
            KernelVariant::NeonDot => {
                sweep_panels::<_, _, 8, 8, 4>(c, n, m, n, kcg, ap, bp, false, |t, a, b, kg| {
                    // SAFETY: as above.
                    unsafe { neon::i8_8x8_dot_neon(t.c, t.ldc, a, b, kg) }
                })
            }
            _ => sweep_panels::<_, _, MR, NR, 1>(
                c,
                n,
                m,
                n,
                kcg,
                ap,
                bp,
                false,
                scalar_micro::<i8, i32, MR, NR>,
            ),
        }
    }
}

impl PackedCode for i16 {
    fn layouts(variant: KernelVariant) -> (PanelLayout, PanelLayout) {
        let (group, nr) = i16_layout(variant);
        (
            PanelLayout { group, width: MR },
            PanelLayout { group, width: nr },
        )
    }

    fn unsigned_activations(_: KernelVariant) -> bool {
        false
    }

    fn flip(self) -> Self {
        self ^ i16::MIN
    }

    fn to_i32(self) -> i32 {
        i32::from(self)
    }

    fn quantize_into_panel(
        variant: KernelVariant,
        dst: &mut [i16],
        src: &[i16],
        scale: f32,
        lo: i32,
        hi: i32,
        flip: bool,
        slot: PanelSlot,
    ) {
        simd::quantize_i16_i16_panel_with(variant, dst, src, scale, lo, hi, flip, slot);
    }
}

impl sealed::Sealed for i16 {
    fn sweep(
        variant: KernelVariant,
        c: &mut [i32],
        m: usize,
        n: usize,
        kcg: usize,
        ap: &[i16],
        bp: &[i16],
        _: SignCorr<'_>,
    ) {
        match variant {
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx2 => {
                sweep_panels::<_, _, 8, 8, 2>(c, n, m, n, kcg, ap, bp, false, |t, a, b, kg| {
                    // SAFETY: the caller-selected variant was feature-checked;
                    // `t` comes from `sweep_panels`.
                    unsafe { x86::i16_8x8_madd_avx2(t.c, t.ldc, a, b, kg) }
                })
            }
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx512 => {
                sweep_panels::<_, _, 8, 16, 2>(c, n, m, n, kcg, ap, bp, false, |t, a, b, kg| {
                    // SAFETY: as above.
                    unsafe { x86::i16_8x16_madd_avx512(t.c, t.ldc, a, b, kg) }
                })
            }
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx512Vnni => {
                sweep_panels::<_, _, 8, 16, 2>(c, n, m, n, kcg, ap, bp, false, |t, a, b, kg| {
                    // SAFETY: as above.
                    unsafe { x86::i16_8x16_dpwssd(t.c, t.ldc, a, b, kg) }
                })
            }
            #[cfg(target_arch = "aarch64")]
            KernelVariant::Neon | KernelVariant::NeonDot => {
                sweep_panels::<_, _, 8, 8, 1>(c, n, m, n, kcg, ap, bp, false, |t, a, b, kc| {
                    // SAFETY: as above.
                    unsafe { neon::i16_8x8_neon(t.c, t.ldc, a, b, kc) }
                })
            }
            _ => sweep_panels::<_, _, MR, NR, 1>(
                c,
                n,
                m,
                n,
                kcg,
                ap,
                bp,
                false,
                scalar_micro::<i16, i32, MR, NR>,
            ),
        }
    }
}

/// Which operand of the product a [`PackedWeights`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// `A`: `free` rows of `C`, the activations are the `B` panels.
    Left,
    /// `B`: `free` columns of `C`, the activations are the `A` panels.
    Right,
}

/// `corr[i] = −128 · Σ_k a[i][k]` over the rows of the row-major `m × k`
/// matrix `a` — the accumulator seeds of an unsigned × signed kernel whose
/// signed operand is `a`. `corr` is a whole number of panels long (so a
/// kernel may read past `m`); the padding is zeroed.
fn row_sign_corrections<T: PackedCode>(corr: &mut [i32], a: &[T], m: usize, k: usize) {
    corr[m..].fill(0);
    for (cv, row) in corr.iter_mut().zip(a.chunks_exact(k.max(1))) {
        *cv = -128 * row.iter().map(|v| v.to_i32()).sum::<i32>();
    }
}

/// `corr[j] = −128 · Σ_k b[k][j]` over the columns of the row-major `k × n`
/// matrix `b`; see [`row_sign_corrections`].
fn col_sign_corrections<T: PackedCode>(corr: &mut [i32], b: &[T], n: usize) {
    corr.fill(0);
    for row in b.chunks_exact(n.max(1)) {
        for (cv, v) in corr.iter_mut().zip(row) {
            *cv -= 128 * v.to_i32();
        }
    }
}

/// A constant integer GEMM operand packed **once** into a kernel variant's
/// `K`-grouped panel layout — the weight side of
/// [`gemm_packed_i32_into`]. See the module docs for the layout, the
/// direct-to-`C` contract and the sign-offset ownership.
#[derive(Debug, Clone)]
pub struct PackedWeights<T> {
    variant: KernelVariant,
    side: Side,
    /// Rows of `C` ([`Side::Left`]) or columns of `C` ([`Side::Right`]).
    free: usize,
    k: usize,
    panels: Vec<T>,
    /// Per-row (left) / per-column (right) accumulator seeds; empty unless
    /// the variant multiplies unsigned × signed.
    sign_corr: Vec<i32>,
}

impl<T: PackedCode> PackedWeights<T> {
    /// Packs the row-major `m × k` matrix `a` as the **left** operand:
    /// [`gemm_packed_i32_into`] then computes `C[m × n] = a · B` for an
    /// activation panel `B` in [`PackedWeights::act_layout`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub fn pack_left(variant: KernelVariant, a: &[T], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "pack_left: A length");
        let (la, _) = T::layouts(variant);
        let mut panels = vec![T::default(); la.elems(k, m)];
        pack_a_panels(&mut panels, a, m, k, la.group);
        let mut sign_corr = Vec::new();
        if T::unsigned_activations(variant) {
            sign_corr.resize(m.next_multiple_of(la.width), 0);
            row_sign_corrections(&mut sign_corr, a, m, k);
        }
        Self {
            variant,
            side: Side::Left,
            free: m,
            k,
            panels,
            sign_corr,
        }
    }

    /// Packs the row-major `k × n` matrix `b` as the **right** operand:
    /// [`gemm_packed_i32_into`] then computes `C[m × n] = A · b` for an
    /// activation panel `A` in [`PackedWeights::act_layout`].
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack_right(variant: KernelVariant, b: &[T], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "pack_right: B length");
        let (_, lb) = T::layouts(variant);
        let mut panels = vec![T::default(); lb.elems(k, n)];
        pack_b_panels(&mut panels, b, n, 0, k, lb.width, lb.group);
        let mut sign_corr = Vec::new();
        if T::unsigned_activations(variant) {
            sign_corr.resize(n.next_multiple_of(lb.width), 0);
            col_sign_corrections(&mut sign_corr, b, n);
        }
        Self {
            variant,
            side: Side::Right,
            free: n,
            k,
            panels,
            sign_corr,
        }
    }

    /// The panel layout the **activation** operand must be written in.
    pub fn act_layout(&self) -> PanelLayout {
        let (la, lb) = T::layouts(self.variant);
        match self.side {
            Side::Left => lb,
            Side::Right => la,
        }
    }

    /// Whether activation codes must be stored sign-flipped
    /// ([`PackedCode::flip`]) in their panel.
    pub fn act_flip(&self) -> bool {
        T::unsigned_activations(self.variant)
    }

    /// Elements of the activation panel for `free` activation vectors
    /// (columns of `C` for a left-packed operand, rows for a right-packed
    /// one).
    pub fn act_elems(&self, free: usize) -> usize {
        self.act_layout().elems(self.k, free)
    }

    /// The shared `K` dimension.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// `C = W · act` (left-packed `W`, `C` is `W.rows × free`) or `C = act · W`
/// (right-packed, `C` is `free × W.cols`), overwriting the row-major `c`.
/// `act` is the other operand **already in panel layout**
/// ([`PackedWeights::act_layout`], [`PackedWeights::act_elems`] long, codes
/// sign-flipped iff [`PackedWeights::act_flip`]); its padding may hold
/// anything — padded `K` steps meet zero weights and padded rows/columns are
/// never stored. Exact `i32` accumulation under the same contract as
/// [`gemm_i16_i32_into`]; bit-identical on every variant.
///
/// # Panics
///
/// Panics if a slice length disagrees with the dimensions.
pub fn gemm_packed_i32_into<T: PackedCode>(
    c: &mut [i32],
    w: &PackedWeights<T>,
    act: &[T],
    free: usize,
) {
    assert_eq!(c.len(), w.free * free, "gemm_packed_i32_into: C length");
    let layout = w.act_layout();
    assert_eq!(
        act.len(),
        layout.elems(w.k, free),
        "gemm_packed_i32_into: activation panel length"
    );
    if w.k == 0 || c.is_empty() {
        c.fill(0);
        return;
    }
    let kcg = layout.k_groups(w.k);
    let corr = match w.side {
        _ if w.sign_corr.is_empty() => SignCorr::None,
        Side::Left => SignCorr::Rows(&w.sign_corr),
        Side::Right => SignCorr::Cols(&w.sign_corr),
    };
    match w.side {
        Side::Left => T::sweep(w.variant, c, w.free, free, kcg, &w.panels, act, corr),
        Side::Right => T::sweep(w.variant, c, free, w.free, kcg, act, &w.panels, corr),
    }
}

/// The thread-parked scratch of a pack-per-call integer product: the `A`
/// panels, the `B` panels and the sign-correction rows.
type IntPanelStore<T> = (Vec<T>, Vec<T>, Vec<i32>);

/// The pack-per-call integer product: packs both row-major operands into
/// thread-parked panels (the whole of `K`, no blocking) and sweeps once.
/// Under an unsigned × signed kernel `B` plays the activation role: its
/// packed panel is sign-flipped and the rows of `A` are summed for the
/// accumulator seeds.
#[allow(clippy::too_many_arguments)]
fn pack_and_sweep_int<T: PackedCode>(
    variant: KernelVariant,
    c: &mut [i32],
    a: &[T],
    b: &[T],
    m: usize,
    k: usize,
    n: usize,
    store: &std::cell::RefCell<IntPanelStore<T>>,
) {
    let (la, lb) = T::layouts(variant);
    let (apack, bpack, rows) = &mut *store.borrow_mut();
    let (a_len, b_len) = (la.elems(k, m), lb.elems(k, n));
    if apack.len() < a_len {
        apack.resize(a_len, T::default());
    }
    if bpack.len() < b_len {
        bpack.resize(b_len, T::default());
    }
    let (apack, bpack) = (&mut apack[..a_len], &mut bpack[..b_len]);
    pack_a_panels(apack, a, m, k, la.group);
    pack_b_panels(bpack, b, n, 0, k, lb.width, lb.group);
    let kcg = la.k_groups(k);
    if T::unsigned_activations(variant) {
        for v in bpack.iter_mut() {
            *v = v.flip();
        }
        rows.resize(m.next_multiple_of(la.width), 0);
        row_sign_corrections(rows, a, m, k);
        T::sweep(variant, c, m, n, kcg, apack, bpack, SignCorr::Rows(rows));
    } else {
        T::sweep(variant, c, m, n, kcg, apack, bpack, SignCorr::None);
    }
}

/// `C[M×N] = A[M×K] · B[K×N]` over `i8` operands with exact `i32`
/// accumulation — the Cube Unit's datapath on flat slices, using the
/// process-wide [`crate::simd::active`] kernel variant. No saturation:
/// `K ≤ 2^15` keeps the result well inside `i32`. Packs both operands on
/// every call; a constant operand belongs in [`PackedWeights`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_i8_i32_into(c: &mut [i32], a: &[i8], b: &[i8], m: usize, k: usize, n: usize) {
    let _sp = gemm_span("gemm_i8_i32", m, k, n);
    gemm_i8_i32_into_with(simd::active(), c, a, b, m, k, n);
}

/// [`gemm_i8_i32_into`] with an explicit kernel variant; every variant is
/// bit-identical (integer arithmetic). A variant foreign to this build's
/// architecture runs the scalar kernels.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_i8_i32_into_with(
    variant: KernelVariant,
    c: &mut [i32],
    a: &[i8],
    b: &[i8],
    m: usize,
    k: usize,
    n: usize,
) {
    if !check_dims("gemm_i8_i32_into", c, a, b, m, k, n) {
        return;
    }
    thread_local! {
        static PANELS: std::cell::RefCell<IntPanelStore<i8>> =
            const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
    }
    PANELS.with(|store| pack_and_sweep_int(variant, c, a, b, m, k, n, store));
}

/// `C[M×N] = A[M×K] · B[K×N]` over `i16` operands with exact `i32`
/// accumulation, using the process-wide [`crate::simd::active`] kernel
/// variant — for Winograd-domain codes wider than 8 bits (`int8/9`,
/// `int8/10`). Callers must keep `K · max|A| · max|B|` inside `i32`
/// (`IntWinogradConv` checks this and falls back to the per-tile path).
/// Packs both operands on every call; a constant operand belongs in
/// [`PackedWeights`].
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_i16_i32_into(c: &mut [i32], a: &[i16], b: &[i16], m: usize, k: usize, n: usize) {
    let _sp = gemm_span("gemm_i16_i32", m, k, n);
    gemm_i16_i32_into_with(simd::active(), c, a, b, m, k, n);
}

/// [`gemm_i16_i32_into`] with an explicit kernel variant; every variant is
/// bit-identical (integer arithmetic). A variant foreign to this build's
/// architecture runs the scalar kernels.
///
/// # Panics
///
/// Panics if any slice length disagrees with the given dimensions.
pub fn gemm_i16_i32_into_with(
    variant: KernelVariant,
    c: &mut [i32],
    a: &[i16],
    b: &[i16],
    m: usize,
    k: usize,
    n: usize,
) {
    if !check_dims("gemm_i16_i32_into", c, a, b, m, k, n) {
        return;
    }
    thread_local! {
        static PANELS: std::cell::RefCell<IntPanelStore<i16>> =
            const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
    }
    PANELS.with(|store| pack_and_sweep_int(variant, c, a, b, m, k, n, store));
}

/// x86-64 microkernels. Every function is `unsafe` because it requires its
/// `target_feature` set; the dispatch layer (or the `_with` caller) verifies
/// support before any call. All panel loads are exactly in-bounds (both
/// operands are padded to the kernel's fixed row widths), and every kernel
/// **stores** its full `MR × NR` accumulator tile at `c + r · ldc` — the driver
/// hands it either a full interior tile of `C` or a stack tile.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    /// 8×8 `f32` FMA kernel: one broadcast per A row, 8 ymm accumulators.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f32_8x8_avx2(c: *mut f32, ldc: usize, ap: &[f32], bp: &[f32], kc: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut regs = [_mm256_setzero_ps(); 8];
        for kk in 0..kc {
            let bv = _mm256_loadu_ps(b.add(kk * 8));
            for (r, reg) in regs.iter_mut().enumerate() {
                *reg = _mm256_fmadd_ps(_mm256_set1_ps(*a.add(kk * 8 + r)), bv, *reg);
            }
        }
        for (r, reg) in regs.iter().enumerate() {
            _mm256_storeu_ps(c.add(r * ldc), *reg);
        }
    }

    /// Thin 4×16 `f32` FMA kernel (two ymm columns × four rows) for `m ≤ 4`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f32_4x16_avx2(c: *mut f32, ldc: usize, ap: &[f32], bp: &[f32], kc: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut lo = [_mm256_setzero_ps(); 4];
        let mut hi = [_mm256_setzero_ps(); 4];
        for kk in 0..kc {
            let b0 = _mm256_loadu_ps(b.add(kk * 16));
            let b1 = _mm256_loadu_ps(b.add(kk * 16 + 8));
            for r in 0..4 {
                let av = _mm256_set1_ps(*a.add(kk * 4 + r));
                lo[r] = _mm256_fmadd_ps(av, b0, lo[r]);
                hi[r] = _mm256_fmadd_ps(av, b1, hi[r]);
            }
        }
        for r in 0..4 {
            _mm256_storeu_ps(c.add(r * ldc), lo[r]);
            _mm256_storeu_ps(c.add(r * ldc).add(8), hi[r]);
        }
    }

    /// 8×16 `f32` FMA kernel on zmm registers.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn f32_8x16_avx512(c: *mut f32, ldc: usize, ap: &[f32], bp: &[f32], kc: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut regs = [_mm512_setzero_ps(); 8];
        for kk in 0..kc {
            let bv = _mm512_loadu_ps(b.add(kk * 16));
            for (r, reg) in regs.iter_mut().enumerate() {
                *reg = _mm512_fmadd_ps(_mm512_set1_ps(*a.add(kk * 8 + r)), bv, *reg);
            }
        }
        for (r, reg) in regs.iter().enumerate() {
            _mm512_storeu_ps(c.add(r * ldc), *reg);
        }
    }

    /// Thin 4×32 `f32` FMA kernel (two zmm columns × four rows) for `m ≤ 4`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn f32_4x32_avx512(c: *mut f32, ldc: usize, ap: &[f32], bp: &[f32], kc: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut lo = [_mm512_setzero_ps(); 4];
        let mut hi = [_mm512_setzero_ps(); 4];
        for kk in 0..kc {
            let b0 = _mm512_loadu_ps(b.add(kk * 32));
            let b1 = _mm512_loadu_ps(b.add(kk * 32 + 16));
            for r in 0..4 {
                let av = _mm512_set1_ps(*a.add(kk * 4 + r));
                lo[r] = _mm512_fmadd_ps(av, b0, lo[r]);
                hi[r] = _mm512_fmadd_ps(av, b1, hi[r]);
            }
        }
        for r in 0..4 {
            _mm512_storeu_ps(c.add(r * ldc), lo[r]);
            _mm512_storeu_ps(c.add(r * ldc).add(16), hi[r]);
        }
    }

    /// The two `K`-paired values of one packed `A` row as the i32 broadcast
    /// payload `vpmaddwd` expects: lane 0 = `a[k]`, lane 1 = `a[k+1]`, both
    /// as sign-extended i16 bit patterns.
    #[inline(always)]
    unsafe fn i8_pair(p: *const i8) -> i32 {
        let lo = u32::from(i16::from(*p) as u16);
        let hi = u32::from(i16::from(*p.add(1)) as u16);
        (lo | (hi << 16)) as i32
    }

    /// 8×8 `i8 → i32` paired-MAC kernel: widen a 16-code `B` group
    /// (`[col][pair]` packed) to i16 lanes, broadcast each row's `K` pair,
    /// and fold both products per column with one `vpmaddwd`. Exact: the
    /// i16 intermediate pair sum is bounded by `2 · 128 · 128 = 32768 <
    /// 2^31`, so `vpmaddwd`'s only saturation case (both products
    /// `(-2^15)^2`) is unreachable from i8 operands.
    #[target_feature(enable = "avx2")]
    pub unsafe fn i8_8x8_madd_avx2(c: *mut i32, ldc: usize, ap: &[i8], bp: &[i8], kg: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut regs = [_mm256_setzero_si256(); 8];
        for kk in 0..kg {
            let bv = _mm256_cvtepi8_epi16(_mm_loadu_si128(b.add(kk * 16) as *const __m128i));
            for (r, reg) in regs.iter_mut().enumerate() {
                let av = _mm256_set1_epi32(i8_pair(a.add((kk * 8 + r) * 2)));
                *reg = _mm256_add_epi32(*reg, _mm256_madd_epi16(av, bv));
            }
        }
        for (r, reg) in regs.iter().enumerate() {
            _mm256_storeu_si256(c.add(r * ldc) as *mut __m256i, *reg);
        }
    }

    /// 8×16 `i8 → i32` paired-MAC kernel on zmm registers; same exactness
    /// argument as [`i8_8x8_madd_avx2`]. The 512-bit `vpmaddwd` and the
    /// byte→word widen are AVX-512BW instructions — the `avx512` variant
    /// requires BW at detection.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn i8_8x16_madd_avx512(c: *mut i32, ldc: usize, ap: &[i8], bp: &[i8], kg: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut regs = [_mm512_setzero_si512(); 8];
        for kk in 0..kg {
            let bv = _mm512_cvtepi8_epi16(_mm256_loadu_si256(b.add(kk * 32) as *const __m256i));
            for (r, reg) in regs.iter_mut().enumerate() {
                let av = _mm512_set1_epi32(i8_pair(a.add((kk * 8 + r) * 2)));
                *reg = _mm512_add_epi32(*reg, _mm512_madd_epi16(av, bv));
            }
        }
        for (r, reg) in regs.iter().enumerate() {
            _mm512_storeu_si512(c.add(r * ldc) as *mut __m512i, *reg);
        }
    }

    /// 8×16 `i8 → i32` VNNI kernel, **unsigned `B`**: `vpdpbusd` folds a quad
    /// of `K` steps per instruction but multiplies unsigned × signed. The
    /// `B` panel (the vector operand) holds codes offset into u8
    /// (`b ^ 0x80 = b + 128`, written that way by whoever produced the
    /// panel), the `A` quads are broadcast as the signed operand, and the
    /// spurious `128 · Σ_k a[r][k]` each row picks up is cancelled by
    /// starting row `r`'s accumulator at `corr[r] = −128 · Σ_k a[r][k]`
    /// (computed once when `A` was packed) — nothing sign-related is left in
    /// the `K` loop. Exact: the u8×i8 word intermediates are within i16,
    /// `vpdpbusd` accumulates them into i32 without saturation, and
    /// `|corr| ≤ 2^14 · K` stays inside the GEMM's i32 contract.
    ///
    /// # Safety
    ///
    /// Besides the module contract, `corr` must point at 8 readable `i32`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub unsafe fn i8_8x16_vnni_ub(
        c: *mut i32,
        ldc: usize,
        ap: &[i8],
        bp: &[i8],
        kg: usize,
        corr: *const i32,
    ) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut regs = [_mm512_setzero_si512(); 8];
        for (r, reg) in regs.iter_mut().enumerate() {
            *reg = _mm512_set1_epi32(*corr.add(r));
        }
        for kk in 0..kg {
            let bv = _mm512_loadu_si512(b.add(kk * 64) as *const __m512i);
            for (r, reg) in regs.iter_mut().enumerate() {
                let quad = (a.add((kk * 8 + r) * 4) as *const i32).read_unaligned();
                *reg = _mm512_dpbusd_epi32(*reg, bv, _mm512_set1_epi32(quad));
            }
        }
        for (r, reg) in regs.iter().enumerate() {
            _mm512_storeu_si512(c.add(r * ldc) as *mut __m512i, *reg);
        }
    }

    /// 8×16 `i8 → i32` VNNI kernel, **unsigned `A`**: the mirror image of
    /// [`i8_8x16_vnni_ub`] for the channel-laned formulation, where the
    /// pre-offset u8 codes sit in the broadcast `A` panel and the signed
    /// operand is the `B` vector. Every row then picks up the same
    /// `128 · Σ_k b[k][j]` per column, cancelled by starting all rows at the
    /// 16-lane vector `corr[j] = −128 · Σ_k b[k][j]`.
    ///
    /// # Safety
    ///
    /// Besides the module contract, `corr` must point at 16 readable `i32`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub unsafe fn i8_8x16_vnni_ua(
        c: *mut i32,
        ldc: usize,
        ap: &[i8],
        bp: &[i8],
        kg: usize,
        corr: *const i32,
    ) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut regs = [_mm512_loadu_si512(corr as *const __m512i); 8];
        for kk in 0..kg {
            let bv = _mm512_loadu_si512(b.add(kk * 64) as *const __m512i);
            for (r, reg) in regs.iter_mut().enumerate() {
                let quad = (a.add((kk * 8 + r) * 4) as *const i32).read_unaligned();
                *reg = _mm512_dpbusd_epi32(*reg, _mm512_set1_epi32(quad), bv);
            }
        }
        for (r, reg) in regs.iter().enumerate() {
            _mm512_storeu_si512(c.add(r * ldc) as *mut __m512i, *reg);
        }
    }

    /// The two `K`-paired values of one packed i16 `A` row as the i32
    /// broadcast payload for `vpmaddwd`.
    #[inline(always)]
    unsafe fn i16_pair(p: *const i16) -> i32 {
        (p as *const u32).read_unaligned() as i32
    }

    /// 8×8 `i16 → i32` paired-MAC kernel (Winograd-domain codes wider than
    /// 8 bits). Exact under the documented i16 GEMM contract
    /// `K · max|A| · max|B| ≤ i32::MAX`: with `K ≥ 2` the pair sum
    /// `2 · max|A| · max|B|` cannot reach `vpmaddwd`'s lone saturation
    /// case, and the i32 accumulation never wraps.
    #[target_feature(enable = "avx2")]
    pub unsafe fn i16_8x8_madd_avx2(c: *mut i32, ldc: usize, ap: &[i16], bp: &[i16], kg: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut regs = [_mm256_setzero_si256(); 8];
        for kk in 0..kg {
            let bv = _mm256_loadu_si256(b.add(kk * 16) as *const __m256i);
            for (r, reg) in regs.iter_mut().enumerate() {
                let av = _mm256_set1_epi32(i16_pair(a.add((kk * 8 + r) * 2)));
                *reg = _mm256_add_epi32(*reg, _mm256_madd_epi16(av, bv));
            }
        }
        for (r, reg) in regs.iter().enumerate() {
            _mm256_storeu_si256(c.add(r * ldc) as *mut __m256i, *reg);
        }
    }

    /// 8×16 `i16 → i32` paired-MAC kernel on zmm registers; same contract
    /// as [`i16_8x8_madd_avx2`].
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn i16_8x16_madd_avx512(c: *mut i32, ldc: usize, ap: &[i16], bp: &[i16], kg: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut regs = [_mm512_setzero_si512(); 8];
        for kk in 0..kg {
            let bv = _mm512_loadu_si512(b.add(kk * 32) as *const __m512i);
            for (r, reg) in regs.iter_mut().enumerate() {
                let av = _mm512_set1_epi32(i16_pair(a.add((kk * 8 + r) * 2)));
                *reg = _mm512_add_epi32(*reg, _mm512_madd_epi16(av, bv));
            }
        }
        for (r, reg) in regs.iter().enumerate() {
            _mm512_storeu_si512(c.add(r * ldc) as *mut __m512i, *reg);
        }
    }

    /// 8×16 `i16 → i32` kernel via `vpdpwssd`, which fuses the pair
    /// multiply-add and the i32 accumulate in one instruction with 32-bit
    /// intermediates — no i16-pair saturation case at all.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub unsafe fn i16_8x16_dpwssd(c: *mut i32, ldc: usize, ap: &[i16], bp: &[i16], kg: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut regs = [_mm512_setzero_si512(); 8];
        for kk in 0..kg {
            let bv = _mm512_loadu_si512(b.add(kk * 32) as *const __m512i);
            for (r, reg) in regs.iter_mut().enumerate() {
                let av = _mm512_set1_epi32(i16_pair(a.add((kk * 8 + r) * 2)));
                *reg = _mm512_dpwssd_epi32(*reg, av, bv);
            }
        }
        for (r, reg) in regs.iter().enumerate() {
            _mm512_storeu_si512(c.add(r * ldc) as *mut __m512i, *reg);
        }
    }
}

/// aarch64 NEON microkernels; same contract as the x86 module.
#[cfg(target_arch = "aarch64")]
mod neon {
    use core::arch::aarch64::*;

    /// 8×8 `f32` kernel: two q-register columns per row, fused accumulate.
    #[target_feature(enable = "neon")]
    pub unsafe fn f32_8x8_neon(c: *mut f32, ldc: usize, ap: &[f32], bp: &[f32], kc: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut lo = [vdupq_n_f32(0.0); 8];
        let mut hi = [vdupq_n_f32(0.0); 8];
        for kk in 0..kc {
            let b0 = vld1q_f32(b.add(kk * 8));
            let b1 = vld1q_f32(b.add(kk * 8 + 4));
            for r in 0..8 {
                let av = *a.add(kk * 8 + r);
                lo[r] = vfmaq_n_f32(lo[r], b0, av);
                hi[r] = vfmaq_n_f32(hi[r], b1, av);
            }
        }
        for r in 0..8 {
            vst1q_f32(c.add(r * ldc), lo[r]);
            vst1q_f32(c.add(r * ldc).add(4), hi[r]);
        }
    }

    /// Thin 4×16 `f32` kernel (four q-register columns × four rows).
    #[target_feature(enable = "neon")]
    pub unsafe fn f32_4x16_neon(c: *mut f32, ldc: usize, ap: &[f32], bp: &[f32], kc: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut regs = [[vdupq_n_f32(0.0); 4]; 4];
        for kk in 0..kc {
            let bv = [
                vld1q_f32(b.add(kk * 16)),
                vld1q_f32(b.add(kk * 16 + 4)),
                vld1q_f32(b.add(kk * 16 + 8)),
                vld1q_f32(b.add(kk * 16 + 12)),
            ];
            for r in 0..4 {
                let av = *a.add(kk * 4 + r);
                for q in 0..4 {
                    regs[r][q] = vfmaq_n_f32(regs[r][q], bv[q], av);
                }
            }
        }
        for r in 0..4 {
            for q in 0..4 {
                vst1q_f32(c.add(r * ldc).add(q * 4), regs[r][q]);
            }
        }
    }

    /// 8×8 `i8 → i32` paired-MAC kernel: `smull` multiplies a 16-code `B`
    /// group (`[col][pair]` packed) against the row's duplicated `K` pair
    /// into exact i16 products, and `sadalp` pairwise-widens adjacent
    /// products into the i32 accumulators — two `K` steps per column per
    /// instruction pair. Exact: the i16 products are bounded by
    /// `128 · 128 = 2^14` and `sadalp` adds them in i32.
    #[target_feature(enable = "neon")]
    pub unsafe fn i8_8x8_pair_neon(c: *mut i32, ldc: usize, ap: &[i8], bp: &[i8], kg: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut lo = [vdupq_n_s32(0); 8];
        let mut hi = [vdupq_n_s32(0); 8];
        for kk in 0..kg {
            let bv = vld1q_s8(b.add(kk * 16));
            let bl = vget_low_s8(bv);
            let bh = vget_high_s8(bv);
            for r in 0..8 {
                let pair = (a.add((kk * 8 + r) * 2) as *const u16).read_unaligned();
                let av = vreinterpret_s8_u16(vdup_n_u16(pair));
                lo[r] = vpadalq_s16(lo[r], vmull_s8(bl, av));
                hi[r] = vpadalq_s16(hi[r], vmull_s8(bh, av));
            }
        }
        for r in 0..8 {
            vst1q_s32(c.add(r * ldc), lo[r]);
            vst1q_s32(c.add(r * ldc).add(4), hi[r]);
        }
    }

    /// 8×8 `i8 → i32` dot-product kernel: `sdot` folds a **quad** of `K`
    /// steps per column lane in one instruction (signed × signed, exact
    /// i32 accumulation — no sign-offset needed, unlike `vpdpbusd`).
    #[target_feature(enable = "neon,dotprod")]
    pub unsafe fn i8_8x8_dot_neon(c: *mut i32, ldc: usize, ap: &[i8], bp: &[i8], kg: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut lo = [vdupq_n_s32(0); 8];
        let mut hi = [vdupq_n_s32(0); 8];
        for kk in 0..kg {
            let b0 = vld1q_s8(b.add(kk * 32));
            let b1 = vld1q_s8(b.add(kk * 32 + 16));
            for r in 0..8 {
                let quad = (a.add((kk * 8 + r) * 4) as *const u32).read_unaligned();
                let av = vreinterpretq_s8_u32(vdupq_n_u32(quad));
                lo[r] = vdotq_s32(lo[r], b0, av);
                hi[r] = vdotq_s32(hi[r], b1, av);
            }
        }
        for r in 0..8 {
            vst1q_s32(c.add(r * ldc), lo[r]);
            vst1q_s32(c.add(r * ldc).add(4), hi[r]);
        }
    }

    /// 8×8 `i16 → i32` kernel via widening multiply-accumulate — exact for
    /// the ≤ 15-bit Winograd-domain codes the integer pipeline admits.
    #[target_feature(enable = "neon")]
    pub unsafe fn i16_8x8_neon(c: *mut i32, ldc: usize, ap: &[i16], bp: &[i16], kc: usize) {
        let a = ap.as_ptr();
        let b = bp.as_ptr();
        let mut lo = [vdupq_n_s32(0); 8];
        let mut hi = [vdupq_n_s32(0); 8];
        for kk in 0..kc {
            let bw = vld1q_s16(b.add(kk * 8));
            let bl = vget_low_s16(bw);
            let bh = vget_high_s16(bw);
            for r in 0..8 {
                let av = vdup_n_s16(*a.add(kk * 8 + r));
                lo[r] = vmlal_s16(lo[r], bl, av);
                hi[r] = vmlal_s16(hi[r], bh, av);
            }
        }
        for r in 0..8 {
            vst1q_s32(c.add(r * ldc), lo[r]);
            vst1q_s32(c.add(r * ldc).add(4), hi[r]);
        }
    }
}

/// Rows of `C` per parallel chunk of an `m`-row product: one chunk per
/// worker thread, rounded up to whole [`MR`]-row panels — every chunk packs
/// `B` for itself, so more chunks than threads only repeats that work.
fn row_chunk(m: usize) -> usize {
    m.div_ceil(max_threads()).next_multiple_of(MR)
}

/// Multiplies two row-major `f32` matrices: `C[M×N] = A[M×K] · B[K×N]`.
///
/// Row chunks of `C` (one per worker thread, see [`row_chunk`]) are
/// independent and are distributed over the worker threads
/// ([`crate::parallel::parallel_chunks_mut`]); each chunk runs the packed
/// sequential kernel [`gemm_f32_into`] on its row slice of `A`.
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
pub fn gemm_f32(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
    assert_eq!(a.rank(), 2, "gemm_f32: A must be a matrix");
    assert_eq!(b.rank(), 2, "gemm_f32: B must be a matrix");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, kb, "gemm_f32: inner dimensions disagree ({k} vs {kb})");

    let mut c = vec![0.0_f32; m * n];
    if m > 0 && n > 0 {
        let a_s = a.as_slice();
        let b_s = b.as_slice();
        let chunk = row_chunk(m);
        parallel_chunks_mut(&mut c, chunk * n, |blk, c_block| {
            let i0 = blk * chunk;
            let rows = c_block.len() / n;
            gemm_f32_into(c_block, &a_s[i0 * k..(i0 + rows) * k], b_s, rows, k, n);
        });
    }
    Tensor::from_vec(c, &[m, n]).expect("gemm_f32 output shape")
}

/// Multiplies two row-major `i8` matrices accumulating in `i32`:
/// `C[M×N] = A[M×K] · B[K×N]`.
///
/// This mirrors the integer datapath of the Cube Unit: int8 operands, int32
/// accumulators, no saturation (the accumulator is wide enough for the layer
/// sizes used in the paper: `K ≤ 2^15` keeps the result well inside `i32`).
/// Row-chunk parallelism follows [`gemm_f32`].
///
/// # Panics
///
/// Panics if either input is not 2-D or the inner dimensions disagree.
pub fn gemm_i8_i32(a: &Tensor<i8>, b: &Tensor<i8>) -> Tensor<i32> {
    assert_eq!(a.rank(), 2, "gemm_i8_i32: A must be a matrix");
    assert_eq!(b.rank(), 2, "gemm_i8_i32: B must be a matrix");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (kb, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k, kb,
        "gemm_i8_i32: inner dimensions disagree ({k} vs {kb})"
    );

    let mut c = vec![0_i32; m * n];
    if m > 0 && n > 0 {
        let a_s = a.as_slice();
        let b_s = b.as_slice();
        let chunk = row_chunk(m);
        parallel_chunks_mut(&mut c, chunk * n, |blk, c_block| {
            let i0 = blk * chunk;
            let rows = c_block.len() / n;
            gemm_i8_i32_into(c_block, &a_s[i0 * k..(i0 + rows) * k], b_s, rows, k, n);
        });
    }
    Tensor::from_vec(c, &[m, n]).expect("gemm_i8_i32 output shape")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_f32(a: &Tensor<f32>, b: &Tensor<f32>) -> Tensor<f32> {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut c = Tensor::<f32>::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at2(i, kk) * b.at2(kk, j);
                }
                c.set2(i, j, acc);
            }
        }
        c
    }

    #[test]
    fn write_k_lanes_lands_every_code_on_its_panel_index() {
        for group in [1, 2, 4] {
            for width in [8, 16] {
                let layout = PanelLayout { group, width };
                for k in [1usize, 3, 4, 7, 8, 9, 33] {
                    let free = width + 3;
                    let mut got = vec![-1_i16; layout.elems(k, free)];
                    let mut want = got.clone();
                    for j in 0..free {
                        let codes: Vec<i16> = (0..k).map(|kk| (j * 100 + kk) as i16).collect();
                        layout.write_k_lanes(&mut got, j, &codes);
                        for (kk, &code) in codes.iter().enumerate() {
                            want[layout.index(k, kk, j)] = code;
                        }
                    }
                    assert_eq!(got, want, "group {group} width {width} k {k}");
                }
            }
        }
    }

    #[test]
    fn identity_product() {
        let a = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let eye = Tensor::from_fn(&[3, 3], |i| if i % 4 == 0 { 1.0 } else { 0.0 });
        let c = gemm_f32(&a, &eye);
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn matches_naive_on_random_shapes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        // Shapes straddle every microkernel boundary: sub-MR row counts
        // (including the thin m ≤ 4 kernel family), sub-NR column counts,
        // exact multiples and ragged tails of both.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (8, 8, 8),
            (13, 7, 9),
            (4, 300, 8),
            (4, 300, 37),
            (5, 257, 17),
            (33, 9, 31),
        ] {
            let a = Tensor::from_fn(&[m, k], |_| rng.gen_range(-2.0_f32..2.0));
            let b = Tensor::from_fn(&[k, n], |_| rng.gen_range(-2.0_f32..2.0));
            let fast = gemm_f32(&a, &b);
            let slow = naive_f32(&a, &b);
            assert!(fast.max_abs_diff(&slow) < 1e-3, "mismatch at ({m},{k},{n})");
        }
    }

    #[test]
    fn into_variant_matches_wrapper() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        for &(m, k, n) in &[(6, 11, 7), (16, 32, 24), (2, 3, 1)] {
            let a = Tensor::from_fn(&[m, k], |_| rng.gen_range(-1.0_f32..1.0));
            let b = Tensor::from_fn(&[k, n], |_| rng.gen_range(-1.0_f32..1.0));
            let mut c = vec![7.0_f32; m * n]; // junk: _into must overwrite
            gemm_f32_into(&mut c, a.as_slice(), b.as_slice(), m, k, n);
            let expect = gemm_f32(&a, &b);
            for (x, y) in c.iter().zip(expect.as_slice()) {
                assert!((x - y).abs() < 1e-4, "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn every_available_variant_matches_scalar() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(97);
        for &(m, k, n) in &[(1, 7, 3), (4, 64, 40), (8, 256, 16), (13, 300, 21)] {
            let af: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0_f32..2.0)).collect();
            let bf: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0_f32..2.0)).collect();
            let ai: Vec<i8> = (0..m * k)
                .map(|_| rng.gen_range(-128_i32..128) as i8)
                .collect();
            let bi: Vec<i8> = (0..k * n)
                .map(|_| rng.gen_range(-128_i32..128) as i8)
                .collect();
            let mut cf_ref = vec![0.0_f32; m * n];
            let mut ci_ref = vec![0_i32; m * n];
            gemm_f32_into_with(KernelVariant::Scalar, &mut cf_ref, &af, &bf, m, k, n);
            gemm_i8_i32_into_with(KernelVariant::Scalar, &mut ci_ref, &ai, &bi, m, k, n);
            for v in simd::available() {
                let mut cf = vec![1.0_f32; m * n];
                gemm_f32_into_with(v, &mut cf, &af, &bf, m, k, n);
                for (x, y) in cf.iter().zip(cf_ref.iter()) {
                    let tol = 1e-5 * (k as f32).max(1.0);
                    assert!((x - y).abs() <= tol, "{} f32 ({m},{k},{n})", v.name());
                }
                let mut ci = vec![1_i32; m * n];
                gemm_i8_i32_into_with(v, &mut ci, &ai, &bi, m, k, n);
                assert_eq!(ci, ci_ref, "{} i8 ({m},{k},{n})", v.name());
            }
        }
    }

    #[test]
    fn dense_rows_with_zeros_are_exact() {
        // Regression for the removed `a_ik == 0` skip: zeros in A must simply
        // contribute nothing, on every microkernel path.
        let a = Tensor::from_vec(vec![0.0_f32, 2.0, 0.0, 0.0, 1.0, 0.0], &[2, 3]).unwrap();
        let b = Tensor::from_fn(&[3, 9], |i| i as f32);
        let fast = gemm_f32(&a, &b);
        let slow = naive_f32(&a, &b);
        assert_eq!(fast.as_slice(), slow.as_slice());
    }

    #[test]
    fn integer_gemm_exact() {
        let a = Tensor::from_vec(vec![127_i8, -128, 1, 0, 5, -5], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![1_i8, 2, 3, 4, 5, 6], &[3, 2]).unwrap();
        let c = gemm_i8_i32(&a, &b);
        // Row 0: [127*1 + (-128)*3 + 1*5, 127*2 + (-128)*4 + 1*6]
        assert_eq!(c.at2(0, 0), 127 - 384 + 5);
        assert_eq!(c.at2(0, 1), 254 - 512 + 6);
        // Row 1: [0 + 15 - 25, 0 + 20 - 30]
        assert_eq!(c.at2(1, 0), -10);
        assert_eq!(c.at2(1, 1), -10);
    }

    #[test]
    fn integer_gemm_matches_f32_for_small_values() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let a_i: Tensor<i8> = Tensor::from_fn(&[6, 10], |_| rng.gen_range(-20_i32..20) as i8);
        let b_i: Tensor<i8> = Tensor::from_fn(&[10, 4], |_| rng.gen_range(-20_i32..20) as i8);
        let a_f = a_i.map(f32::from);
        let b_f = b_i.map(f32::from);
        let ci = gemm_i8_i32(&a_i, &b_i);
        let cf = gemm_f32(&a_f, &b_f);
        for (iv, fv) in ci.as_slice().iter().zip(cf.as_slice().iter()) {
            assert_eq!(*iv as f32, *fv);
        }
    }

    #[test]
    fn i16_gemm_matches_i8_on_shared_range_and_covers_wide_codes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let (m, k, n) = (5, 19, 11);
        let a8: Vec<i8> = (0..m * k)
            .map(|_| rng.gen_range(-100_i32..100) as i8)
            .collect();
        let b8: Vec<i8> = (0..k * n)
            .map(|_| rng.gen_range(-100_i32..100) as i8)
            .collect();
        let a16: Vec<i16> = a8.iter().map(|&v| i16::from(v)).collect();
        let b16: Vec<i16> = b8.iter().map(|&v| i16::from(v)).collect();
        let mut c8 = vec![0_i32; m * n];
        let mut c16 = vec![0_i32; m * n];
        gemm_i8_i32_into(&mut c8, &a8, &b8, m, k, n);
        gemm_i16_i32_into(&mut c16, &a16, &b16, m, k, n);
        assert_eq!(c8, c16);
        // 10-bit codes exceed i8: the i16 kernel must stay exact.
        let a_w = vec![511_i16; 2 * 3];
        let b_w = vec![-511_i16; 3 * 2];
        let mut c_w = vec![0_i32; 2 * 2];
        gemm_i16_i32_into(&mut c_w, &a_w, &b_w, 2, 3, 2);
        assert!(c_w.iter().all(|&v| v == 3 * 511 * -511));
    }

    #[test]
    fn degenerate_dimensions_are_handled() {
        let mut c = vec![9.0_f32; 0];
        gemm_f32_into(&mut c, &[], &[], 0, 4, 0);
        let mut c = vec![9.0_f32; 6];
        gemm_f32_into(&mut c, &[], &[], 2, 0, 3);
        assert!(c.iter().all(|&v| v == 0.0), "k = 0 must produce zeros");
    }

    #[test]
    fn b_panel_sizing_covers_padded_blocks() {
        for v in simd::available() {
            for &(m, k, n) in &[(4, 512, 512), (8, 64, 7), (32, 300, 56)] {
                let elems = gemm_f32_b_panel_elems(v, m, k, n);
                assert!(elems >= k.min(256) * n, "panel must cover B's block");
                assert_eq!(elems % 8, 0, "panels are NR-padded");
                // Integer panels additionally pad K to the pairing width.
                for (elems, (g, nrp)) in [
                    (gemm_i8_b_panel_elems(v, k, n), i8_layout(v)),
                    (gemm_i16_b_panel_elems(v, k, n), i16_layout(v)),
                ] {
                    assert!(
                        elems >= k.min(256) * n,
                        "{} int panel must cover B's block",
                        v.name()
                    );
                    assert_eq!(elems % (g * nrp), 0, "{} K-group padding", v.name());
                }
            }
        }
    }

    #[test]
    fn paired_kernels_match_scalar_on_k_odd_and_saturation_extremes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        // K deliberately not a multiple of the pairing widths (2 / 4), plus
        // K exactly 1 below/above a group boundary, and shapes straddling
        // the MR/NR register blocks.
        for &(m, k, n) in &[
            (8, 1, 16),
            (8, 2, 16),
            (8, 3, 17),
            (8, 5, 16),
            (5, 7, 9),
            (9, 13, 33),
            (12, 255, 19),
            (8, 257, 16),
        ] {
            // Half the operands pinned at the i8 extremes: −128·−128 quads
            // are where a mishandled widening/saturation path would break.
            let ai: Vec<i8> = (0..m * k)
                .map(|i| match i % 4 {
                    0 => -128,
                    1 => 127,
                    _ => rng.gen_range(-128_i32..128) as i8,
                })
                .collect();
            let bi: Vec<i8> = (0..k * n)
                .map(|i| match i % 3 {
                    0 => -128,
                    1 => 127,
                    _ => rng.gen_range(-128_i32..128) as i8,
                })
                .collect();
            // i16 at the widest magnitude the documented contract admits
            // for this K: K · max|A| · max|B| ≤ i32::MAX.
            let lim = ((i32::MAX as f64 / k as f64).sqrt() as i32).min(i16::MAX as i32) as i16;
            let a16: Vec<i16> = (0..m * k)
                .map(|i| match i % 4 {
                    0 => -lim,
                    1 => lim,
                    _ => rng.gen_range(-i32::from(lim)..i32::from(lim) + 1) as i16,
                })
                .collect();
            let b16: Vec<i16> = (0..k * n)
                .map(|i| match i % 3 {
                    0 => -lim,
                    1 => lim,
                    _ => rng.gen_range(-i32::from(lim)..i32::from(lim) + 1) as i16,
                })
                .collect();
            let mut c8_ref = vec![0_i32; m * n];
            let mut c16_ref = vec![0_i32; m * n];
            gemm_i8_i32_into_with(KernelVariant::Scalar, &mut c8_ref, &ai, &bi, m, k, n);
            gemm_i16_i32_into_with(KernelVariant::Scalar, &mut c16_ref, &a16, &b16, m, k, n);
            for v in simd::available() {
                let mut c8 = vec![1_i32; m * n];
                gemm_i8_i32_into_with(v, &mut c8, &ai, &bi, m, k, n);
                assert_eq!(c8, c8_ref, "{} i8 ({m},{k},{n})", v.name());
                let mut c16 = vec![1_i32; m * n];
                gemm_i16_i32_into_with(v, &mut c16, &a16, &b16, m, k, n);
                assert_eq!(c16, c16_ref, "{} i16 ({m},{k},{n})", v.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn shape_mismatch_panics() {
        let a = Tensor::<f32>::zeros(&[2, 3]);
        let b = Tensor::<f32>::zeros(&[2, 3]);
        let _ = gemm_f32(&a, &b);
    }

    #[test]
    fn facade_methods() {
        let a = Tensor::from_vec(vec![1_i8, 2, 3, 4], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![1_i8, 0, 0, 1], &[2, 2]).unwrap();
        let c = Gemm::i8(&a, &b);
        assert_eq!(c.as_slice(), &[1, 2, 3, 4]);
    }
}
