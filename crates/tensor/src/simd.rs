//! Runtime SIMD kernel dispatch.
//!
//! The GEMM microkernels ([`crate::gemm`]), the Winograd transform engines and
//! the quantize/requant primitives below exist in several instruction-set
//! variants: a portable scalar fallback, x86-64 AVX2/FMA, AVX-512F/BW and
//! AVX-512 VNNI, and aarch64 NEON with an optional `dotprod` (SDOT) tier.
//! One variant is selected **once per process** — the first call to
//! [`active`] probes the CPU (`is_x86_feature_detected!` / the aarch64
//! equivalent) and caches the best supported [`KernelVariant`]; every hot
//! call after that is a branch on a loaded value, never a re-probe.
//!
//! The environment variable [`FORCE_ENV`] (`WINO_FORCE_KERNEL`) overrides
//! detection: `WINO_FORCE_KERNEL=scalar` pins the portable kernels (the
//! reference every SIMD variant is equivalence-tested against),
//! `avx2`/`avx512`/`avx512vnni`/`neon`/`neondot` pin a specific ISA. Forcing
//! a variant the host does not support panics at first use rather than
//! silently falling back — a forced run must mean what it says.
//!
//! Tests and benchmarks that want to compare variants inside one process
//! bypass the global selection entirely: [`available`] lists the variants
//! this host can run, and the `gemm_*_into_with` / `quantize_*_with` entry
//! points take an explicit variant.
//!
//! # Quantize/requant primitives
//!
//! [`quantize_f32_i8`], [`quantize_i16_i8_panel_with`] /
//! [`quantize_i16_i16_panel_with`] and [`requant_f32`] vectorize the integer
//! Winograd pipeline's scale+round+clamp steps (input quantization, tap-wise
//! requantization, and the requant/dequant epilogue). The tap-wise
//! requantization reads the `i16` lanes of the transform engines and writes
//! its codes **directly in the `K`-grouped panel layout the integer GEMM
//! microkernel reads** ([`PanelSlot`]), so no pack pass runs between the
//! input transform and the tap GEMMs.
//! They are **bit-identical across variants for finite inputs**: every
//! variant divides (IEEE-exact; a power-of-two scale is multiplied by its
//! exact reciprocal instead, the same bits for less latency), rounds
//! half-to-even (`cvtps`/`vcvtnq` hardware rounding =
//! `f32::round_ties_even`) and clamps in the float domain before the integer
//! conversion, in the same order as the scalar reference expression.
//!
//! # Winograd transform engines
//!
//! The integer pipeline's transforms — [`wino_bt_pass_with`] (the
//! hand-factored `Bᵀ·d` over `i16` lane rows), [`wino_deinterleave_with`]
//! (transformed rows to tile lanes) and [`wino_output_stage_with`] (`S_BG`
//! and both `Aᵀ` stages in registers) — are each **one generic body** over
//! fixed-size lane blocks, compiled once per ISA under a `#[target_feature]`
//! wrapper instead of hand-copied per variant, and bit-identical across
//! variants (exact integers; floats in the scalar reference's order, no FMA).
//!
//! # Adding an ISA variant
//!
//! 1. Add the enum case and its [`KernelVariant::name`] /
//!    [`KernelVariant::is_supported`] arms (compile-gate the probe on the
//!    target architecture).
//! 2. Rank it in [`KernelVariant::ALL`] (detection order, worst first).
//! 3. Provide microkernels in `gemm.rs` and dispatch arms in the
//!    `gemm_*_into_with` functions, plus SoA, quantize and (one
//!    `engine_instances!` line) transform-engine arms in this module's
//!    dispatch (a variant may reuse a weaker tier's implementations —
//!    `avx512vnni` shares the AVX-512 SoA bodies).
//! 4. The randomized equivalence suite (`tests/simd_kernels.rs`) picks the
//!    new variant up automatically through [`available`].

use std::sync::OnceLock;

/// Environment variable that overrides kernel detection
/// (`scalar`, `avx2`, `avx512`, `avx512vnni`, `neon` or `neondot`).
pub const FORCE_ENV: &str = "WINO_FORCE_KERNEL";

/// One instruction-set implementation of the hot kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Portable scalar Rust (the reference all SIMD variants must match).
    Scalar,
    /// x86-64 AVX2 + FMA (256-bit lanes, paired-MAC integer kernels).
    Avx2,
    /// x86-64 AVX-512F + AVX-512BW (512-bit lanes, paired-MAC integer
    /// kernels via `vpmaddwd`).
    Avx512,
    /// x86-64 AVX-512 VNNI: quad int8 dot-product accumulate (`vpdpbusd`)
    /// and paired int16 accumulate (`vpdpwssd`); `f32` kernels shared with
    /// [`KernelVariant::Avx512`].
    Avx512Vnni,
    /// aarch64 NEON (128-bit lanes).
    Neon,
    /// aarch64 NEON + `dotprod`: quad int8 dot-product accumulate (`sdot`);
    /// everything else shared with [`KernelVariant::Neon`].
    NeonDot,
}

impl KernelVariant {
    /// Every variant, in detection order (worst first).
    pub const ALL: [KernelVariant; 6] = [
        KernelVariant::Scalar,
        KernelVariant::Neon,
        KernelVariant::NeonDot,
        KernelVariant::Avx2,
        KernelVariant::Avx512,
        KernelVariant::Avx512Vnni,
    ];

    /// The lowercase name used by [`FORCE_ENV`], stats tables and bench rows.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Avx2 => "avx2",
            KernelVariant::Avx512 => "avx512",
            KernelVariant::Avx512Vnni => "avx512vnni",
            KernelVariant::Neon => "neon",
            KernelVariant::NeonDot => "neondot",
        }
    }

    /// Parses a [`FORCE_ENV`] value.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelVariant::Scalar),
            "avx2" => Some(KernelVariant::Avx2),
            "avx512" => Some(KernelVariant::Avx512),
            "avx512vnni" => Some(KernelVariant::Avx512Vnni),
            "neon" => Some(KernelVariant::Neon),
            "neondot" => Some(KernelVariant::NeonDot),
            _ => None,
        }
    }

    /// Whether this host can execute the variant.
    pub fn is_supported(self) -> bool {
        match self {
            KernelVariant::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx2 => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx512 => {
                // The paired-MAC integer kernels use 512-bit `vpmaddwd` /
                // `vpmovdb`, which need BW on top of F. Every AVX-512 server
                // part since Skylake-X has both.
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
            }
            #[cfg(target_arch = "x86_64")]
            KernelVariant::Avx512Vnni => {
                KernelVariant::Avx512.is_supported() && is_x86_feature_detected!("avx512vnni")
            }
            #[cfg(target_arch = "aarch64")]
            KernelVariant::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[cfg(target_arch = "aarch64")]
            KernelVariant::NeonDot => {
                KernelVariant::Neon.is_supported()
                    && std::arch::is_aarch64_feature_detected!("dotprod")
            }
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The `N` width (columns per register block) of this variant's standard
    /// `f32` GEMM microkernel. The Winograd planner uses this to size panels:
    /// a tap GEMM whose `N` dimension cannot reach this width wastes lanes,
    /// which is what the channel-laned thin-layer formulation fixes.
    pub fn nr_f32(self) -> usize {
        match self {
            KernelVariant::Avx512 | KernelVariant::Avx512Vnni => 16,
            _ => 8,
        }
    }
}

/// The best variant this host supports (ignores [`FORCE_ENV`]).
pub fn detected() -> KernelVariant {
    KernelVariant::ALL
        .into_iter()
        .rev()
        .find(|v| v.is_supported())
        .unwrap_or(KernelVariant::Scalar)
}

/// Every variant this host can execute, scalar first.
pub fn available() -> Vec<KernelVariant> {
    KernelVariant::ALL
        .into_iter()
        .filter(|v| v.is_supported())
        .collect()
}

/// The process-wide active kernel variant: [`detected`] unless [`FORCE_ENV`]
/// overrides it. Resolved once; subsequent calls are a cached load.
///
/// # Panics
///
/// Panics on first use if [`FORCE_ENV`] names an unknown variant or one this
/// host cannot execute.
pub fn active() -> KernelVariant {
    static ACTIVE: OnceLock<KernelVariant> = OnceLock::new();
    *ACTIVE.get_or_init(|| match std::env::var(FORCE_ENV) {
        Ok(raw) => {
            let v = KernelVariant::parse(&raw).unwrap_or_else(|| {
                panic!(
                    "{FORCE_ENV}={raw}: expected one of \
                     scalar|avx2|avx512|avx512vnni|neon|neondot"
                )
            });
            assert!(
                v.is_supported(),
                "{FORCE_ENV}={raw}: this host does not support the {} kernels",
                v.name()
            );
            v
        }
        Err(_) => detected(),
    })
}

// ---------------------------------------------------------------------------
// SoA, transform-engine and quantize primitives.
//
// The batched Winograd transforms operate on contiguous lanes; these are
// their dispatched inner steps. Each is a safe wrapper around a per-variant
// implementation chosen through one function pointer, so the per-call
// overhead is a single indirect call over hundreds of lanes.
// ---------------------------------------------------------------------------

/// `(dst, src, scale, lo, hi, flip, slot)` — see [`quantize_i16_i8_panel_with`].
type PanelQuantize<E> = fn(&mut [E], &[i16], f32, i32, i32, bool, PanelSlot);

/// `(src rows, dst, dst row stride)` — see [`wino_bt_pass_with`].
type BtPass<I> = fn(&[&[I]], &mut [i16], usize);

/// The resolved primitive implementations of one variant.
struct SoaOps {
    axpy_f32: fn(&mut [f32], f32, &[f32]),
    bt_pass_i8: BtPass<i8>,
    bt_pass_i16: BtPass<i16>,
    deinterleave: fn(&[i16], &mut [i16], TileLanes),
    output_stage: fn(&[i32], &[f32], &mut [f32], OutputLanes),
    quantize_f32_i8: fn(&mut [i8], &[f32], f32, f32, i32, i32),
    quantize_i16_i8_panel: PanelQuantize<i8>,
    quantize_i16_i16_panel: PanelQuantize<i16>,
    requant_f32: fn(&mut [f32], &[f32], f32, f32, i32, i32),
}

/// The implementation table for one variant (a promoted constant: looking
/// it up per call costs a match). The VNNI and `dotprod` tiers only change
/// the GEMM microkernels, so they share the AVX-512 / NEON bodies here.
fn soa_ops_for(variant: KernelVariant) -> &'static SoaOps {
    match variant {
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx2 => &SoaOps {
            axpy_f32: x86::axpy_f32_avx2,
            bt_pass_i8: x86::avx2::bt_pass,
            bt_pass_i16: x86::avx2::bt_pass,
            deinterleave: x86::avx2::deinterleave,
            output_stage: x86::avx2::output_stage,
            quantize_f32_i8: x86::quantize_f32_i8_avx2,
            quantize_i16_i8_panel: x86::quantize_panel_avx2::<i8>,
            quantize_i16_i16_panel: x86::quantize_panel_avx2::<i16>,
            requant_f32: x86::requant_f32_avx2,
        },
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx512 | KernelVariant::Avx512Vnni => &SoaOps {
            axpy_f32: x86::axpy_f32_avx512,
            bt_pass_i8: x86::avx512::bt_pass,
            bt_pass_i16: x86::avx512::bt_pass,
            deinterleave: x86::avx512::deinterleave,
            output_stage: x86::avx512::output_stage,
            quantize_f32_i8: x86::quantize_f32_i8_avx512,
            quantize_i16_i8_panel: x86::quantize_panel_avx512::<i8>,
            quantize_i16_i16_panel: x86::quantize_panel_avx512::<i16>,
            requant_f32: x86::requant_f32_avx512,
        },
        #[cfg(target_arch = "aarch64")]
        KernelVariant::Neon | KernelVariant::NeonDot => &SoaOps {
            axpy_f32: neon::axpy_f32_neon,
            bt_pass_i8: neon::engines::bt_pass,
            bt_pass_i16: neon::engines::bt_pass,
            deinterleave: neon::engines::deinterleave,
            output_stage: neon::engines::output_stage,
            quantize_f32_i8: neon::quantize_f32_i8_neon,
            quantize_i16_i8_panel: neon::quantize_panel_neon::<i8>,
            quantize_i16_i16_panel: neon::quantize_panel_neon::<i16>,
            requant_f32: neon::requant_f32_neon,
        },
        _ => &SoaOps {
            axpy_f32: axpy_f32_scalar,
            bt_pass_i8: bt_pass_body,
            bt_pass_i16: bt_pass_body,
            deinterleave: deinterleave_body,
            output_stage: output_stage_body,
            quantize_f32_i8: quantize_f32_i8_scalar,
            quantize_i16_i8_panel: quantize_panel_scalar::<i8>,
            quantize_i16_i16_panel: quantize_panel_scalar::<i16>,
            requant_f32: requant_f32_scalar,
        },
    }
}

/// The table of the process-wide [`active`] variant.
fn soa_ops() -> &'static SoaOps {
    soa_ops_for(active())
}

/// `dst[i] += coeff · src[i]`. The float Winograd transforms use this; SIMD
/// variants contract the multiply-add (FMA), so results can differ from the
/// scalar build in the last ulp.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn axpy_f32(dst: &mut [f32], coeff: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy_f32: length mismatch");
    (soa_ops().axpy_f32)(dst, coeff, src);
}

/// `dst[i] = clamp(round_ties_even((src[i] + bias) / scale), lo, hi) as i8` —
/// the spatial int8 quantization step (input activations and the fused
/// integer output epilogue; `bias` rides the same pass as a broadcast add,
/// and a fused ReLU is `lo = 0`). Bit-identical across variants for finite
/// inputs: division, half-even rounding and the float-domain clamp all round
/// like the scalar expression.
///
/// # Panics
///
/// Panics if the slices disagree in length or `[lo, hi] ⊄ i8`.
pub fn quantize_f32_i8(dst: &mut [i8], src: &[f32], scale: f32, bias: f32, lo: i32, hi: i32) {
    assert_eq!(dst.len(), src.len(), "quantize_f32_i8: length mismatch");
    assert!(lo >= i32::from(i8::MIN) && hi <= i32::from(i8::MAX) && lo <= hi);
    (soa_ops().quantize_f32_i8)(dst, src, scale, bias, lo, hi);
}

/// [`quantize_f32_i8`] with an explicit kernel variant (tests/benches). A
/// variant foreign to this build's architecture runs the scalar body.
pub fn quantize_f32_i8_with(
    variant: KernelVariant,
    dst: &mut [i8],
    src: &[f32],
    scale: f32,
    bias: f32,
    lo: i32,
    hi: i32,
) {
    assert_eq!(dst.len(), src.len(), "quantize_f32_i8: length mismatch");
    assert!(lo >= i32::from(i8::MIN) && hi <= i32::from(i8::MAX) && lo <= hi);
    (soa_ops_for(variant).quantize_f32_i8)(dst, src, scale, bias, lo, hi);
}

/// Where the lane row of one `K` index lands inside a `K`-grouped GEMM panel
/// (`[panel][k group][width][group]`, see `gemm.rs`): lane `j` goes to
/// [`PanelSlot::offset`] past the start of the row's `K` group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PanelSlot {
    /// Lanes per panel (the microkernel's `NR` or `MR`).
    pub width: usize,
    /// `K` steps interleaved per lane (`G`).
    pub group: usize,
    /// Elements between consecutive panels.
    pub chunk_stride: usize,
    /// This row's position inside its `K` group (`< group`).
    pub g: usize,
}

impl PanelSlot {
    /// Lane `j` lands at `dst[j]`: one panel as wide as any row.
    pub const CONTIGUOUS: PanelSlot = PanelSlot {
        width: usize::MAX & !63,
        group: 1,
        chunk_stride: 0,
        g: 0,
    };

    /// Element offset of lane `j`.
    #[inline(always)]
    pub fn offset(self, j: usize) -> usize {
        (j / self.width) * self.chunk_stride + (j % self.width) * self.group + self.g
    }

    /// Checks a `lanes`-lane write through this slot stays inside `dst_len`
    /// elements and that the clamp range fits `E`.
    fn check<E: PanelCode>(self, dst_len: usize, lanes: usize, lo: i32, hi: i32) {
        assert!(self.g < self.group && self.width > 0, "PanelSlot: bad slot");
        // One past the last lane's `K` group (no division on the common
        // single-panel row: this runs once per quantized row).
        let end = if lanes <= self.width {
            lanes * self.group
        } else {
            self.offset(lanes - 1) - self.g + self.group
        };
        assert!(end <= dst_len, "quantize panel: destination too short");
        assert!(
            lo >= E::MIN && hi <= E::MAX && lo <= hi,
            "quantize panel: clamp range"
        );
    }
}

/// Walks the lane slots of a [`PanelSlot`] in order without dividing per
/// lane: `at()` is the element offset of the current lane's `K` group.
struct SlotCursor {
    slot: PanelSlot,
    panel_at: usize,
    within: usize,
}

impl SlotCursor {
    fn new(slot: PanelSlot, lane: usize) -> Self {
        // Rows start at lane 0 and tails usually sit in the first panel:
        // keep the division off that path.
        let (panel, within) = if lane < slot.width {
            (0, lane)
        } else {
            (lane / slot.width, lane % slot.width)
        };
        Self {
            slot,
            panel_at: panel * slot.chunk_stride,
            within,
        }
    }

    #[inline(always)]
    fn at(&self) -> usize {
        self.panel_at + self.within * self.slot.group
    }

    /// Steps `lanes` lanes on; `lanes` must divide the panel width (or be 1).
    #[inline(always)]
    fn advance(&mut self, lanes: usize) {
        self.within += lanes;
        if self.within >= self.slot.width {
            self.within = 0;
            self.panel_at += self.slot.chunk_stride;
        }
    }
}

/// `dst[slot.offset(j)] = clamp(round_ties_even(src[j] as f32 / scale), lo,
/// hi) as i8`, XORed with the sign bit when `flip` — the tap-wise
/// requantization of the integer input transform (`S_B`) at ≤ 8
/// Winograd-domain bits, read from the transform engines' `i16` lanes and
/// written straight into the GEMM panel (`flip` is the `u8 = code + 128` form
/// an unsigned × signed dot-product kernel reads). Only the addressed element
/// of each `K` group is written; its neighbours (the other `K` steps of the
/// group) are left alone. Bit-identical across variants.
///
/// # Panics
///
/// Panics if `dst` is shorter than the slot needs, `[lo, hi] ⊄ i8` or
/// `slot.g >= slot.group`.
#[allow(clippy::too_many_arguments)]
pub fn quantize_i16_i8_panel_with(
    variant: KernelVariant,
    dst: &mut [i8],
    src: &[i16],
    scale: f32,
    lo: i32,
    hi: i32,
    flip: bool,
    slot: PanelSlot,
) {
    slot.check::<i8>(dst.len(), src.len(), lo, hi);
    (soa_ops_for(variant).quantize_i16_i8_panel)(dst, src, scale, lo, hi, flip, slot);
}

/// [`quantize_i16_i8_panel_with`] producing `i16` codes (Winograd-domain
/// bit-widths above 8).
///
/// # Panics
///
/// Panics if `dst` is shorter than the slot needs, `[lo, hi] ⊄ i16` or
/// `slot.g >= slot.group`.
#[allow(clippy::too_many_arguments)]
pub fn quantize_i16_i16_panel_with(
    variant: KernelVariant,
    dst: &mut [i16],
    src: &[i16],
    scale: f32,
    lo: i32,
    hi: i32,
    flip: bool,
    slot: PanelSlot,
) {
    slot.check::<i16>(dst.len(), src.len(), lo, hi);
    (soa_ops_for(variant).quantize_i16_i16_panel)(dst, src, scale, lo, hi, flip, slot);
}

/// `dst[i] = clamp(round_ties_even((src[i] + bias) / scale), lo, hi) as f32 ·
/// scale` — requantize-then-dequantize in one pass, the integer epilogue's
/// output stage when the consumer needs FP32 (residual tails and dequantized
/// graph outputs). A fused pre-residual ReLU is `lo = 0`. Bit-identical
/// across variants for finite inputs, and bit-identical to
/// [`quantize_f32_i8`] followed by `f32::from(code) * scale`.
///
/// # Panics
///
/// Panics if the slices disagree in length or `lo > hi`.
pub fn requant_f32(dst: &mut [f32], src: &[f32], scale: f32, bias: f32, lo: i32, hi: i32) {
    assert_eq!(dst.len(), src.len(), "requant_f32: length mismatch");
    assert!(lo <= hi, "requant_f32: empty clamp range");
    (soa_ops().requant_f32)(dst, src, scale, bias, lo, hi);
}

/// [`requant_f32`] with an explicit kernel variant (tests/benches).
pub fn requant_f32_with(
    variant: KernelVariant,
    dst: &mut [f32],
    src: &[f32],
    scale: f32,
    bias: f32,
    lo: i32,
    hi: i32,
) {
    assert_eq!(dst.len(), src.len(), "requant_f32: length mismatch");
    assert!(lo <= hi, "requant_f32: empty clamp range");
    (soa_ops_for(variant).requant_f32)(dst, src, scale, bias, lo, hi);
}

fn axpy_f32_scalar(dst: &mut [f32], coeff: f32, src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d += coeff * s;
    }
}

/// Scalar tail of the *fused* vector bodies: `mul_add` rounds exactly like
/// a hardware FMA lane, so an element's bits do not depend on whether its
/// lane index fell in the vector body or the tail. (Callers that lane the
/// same tile at different positions — tile-laned vs channel-laned Winograd —
/// rely on this for batch-size-independent results within one variant.)
#[allow(dead_code)] // unused on ISAs with no fused body
fn axpy_f32_fused_tail(dst: &mut [f32], coeff: f32, src: &[f32]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = coeff.mul_add(s, *d);
    }
}

/// The canonical quantization expression every variant reproduces bitwise:
/// divide, round half-to-even (the hardware rounding of `cvtps`/`vcvtnq`),
/// clamp **in the float domain** (`max` then `min`, so the vector `maxps` /
/// `minps` sequence matches even at the saturated extremes), then convert.
#[inline(always)]
fn quantize_step(x: f32, scale: f32, bias: f32, lo: i32, hi: i32) -> i32 {
    ((x + bias) / scale)
        .round_ties_even()
        .max(lo as f32)
        .min(hi as f32) as i32
}

fn quantize_f32_i8_scalar(dst: &mut [i8], src: &[f32], scale: f32, bias: f32, lo: i32, hi: i32) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = quantize_step(s, scale, bias, lo, hi) as i8;
    }
}

/// A Winograd-domain code type a panel quantizer can emit (`i8`, `i16`).
trait PanelCode: Copy {
    const MIN: i32;
    const MAX: i32;
    /// Narrows a clamped code, XORing the sign bit in when `flip`.
    fn from_code(code: i32, flip: bool) -> Self;
}

impl PanelCode for i8 {
    const MIN: i32 = i8::MIN as i32;
    const MAX: i32 = i8::MAX as i32;
    #[inline(always)]
    fn from_code(code: i32, flip: bool) -> Self {
        code as i8 ^ if flip { i8::MIN } else { 0 }
    }
}

impl PanelCode for i16 {
    const MIN: i32 = i16::MIN as i32;
    const MAX: i32 = i16::MAX as i32;
    #[inline(always)]
    fn from_code(code: i32, flip: bool) -> Self {
        code as i16 ^ if flip { i16::MIN } else { 0 }
    }
}

/// Lanes `first..src.len()` of a panel quantization, one element at a time —
/// the scalar reference and the tail of every vector body.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn quantize_panel_tail<E: PanelCode>(
    dst: &mut [E],
    src: &[i16],
    first: usize,
    scale: f32,
    lo: i32,
    hi: i32,
    flip: bool,
    slot: PanelSlot,
) {
    let mut cur = SlotCursor::new(slot, first);
    for &s in &src[first..] {
        let code = quantize_step(f32::from(s), scale, 0.0, lo, hi);
        dst[cur.at() + slot.g] = E::from_code(code, flip);
        cur.advance(1);
    }
}

fn quantize_panel_scalar<E: PanelCode>(
    dst: &mut [E],
    src: &[i16],
    scale: f32,
    lo: i32,
    hi: i32,
    flip: bool,
    slot: PanelSlot,
) {
    quantize_panel_tail(dst, src, 0, scale, lo, hi, flip, slot);
}

/// `(factor, multiply)` of a vector panel quantizer: the exact reciprocal of
/// a power-of-two `scale`, to multiply by — `x · 2⁻ᵏ` and `x / 2ᵏ` are the
/// same correctly rounded real number, so the same bits, without the
/// divider's latency — or `scale` itself, to divide by.
#[allow(dead_code)] // unused on targets without a vector body
fn reciprocal_if_exact(scale: f32) -> (f32, bool) {
    let recip = 1.0 / scale;
    let exact = scale.to_bits() & 0x007f_ffff == 0 && scale.is_normal() && recip.is_normal();
    (if exact { recip } else { scale }, exact)
}

/// The per-lane byte mask and field shift of one vector body: a lane's slot
/// is `size_of::<E>() · group` bytes (1, 2 or 4), of which this row owns the
/// `size_of::<E>()` bytes at byte offset `size_of::<E>() · g`. Returns
/// `(slot_bytes, owned-byte bitmask within the slot, field shift in bits)`,
/// or `None` when the slot is wider than a 32-bit lane or the panel width
/// is not a whole number of `lanes`-lane vectors.
#[allow(dead_code)] // unused on targets without a vector body
fn lane_field<E>(slot: PanelSlot, lanes: usize) -> Option<(usize, u32, u32)> {
    let e = std::mem::size_of::<E>();
    let slot_bytes = e * slot.group;
    if slot_bytes > 4 || !slot.width.is_multiple_of(lanes) {
        return None;
    }
    let owned = ((1u32 << e) - 1) << (e * slot.g);
    Some((slot_bytes, owned, (8 * e * slot.g) as u32))
}

fn requant_f32_scalar(dst: &mut [f32], src: &[f32], scale: f32, bias: f32, lo: i32, hi: i32) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = quantize_step(s, scale, bias, lo, hi) as f32 * scale;
    }
}

// ---------------------------------------------------------------------------
// Winograd transform engines of the integer pipeline: plain arithmetic on
// fixed-size lane blocks, which the compiler turns into the vectors of
// whatever ISA the enclosing `engine_instances!` wrapper enables.
// ---------------------------------------------------------------------------

/// A lane element of the 1-D `Bᵀ` pass: int8 pixels (the column pass, widened
/// on load) or `i16` partial transforms (the row pass).
pub trait BtLane: Copy + 'static {
    /// The lane widened to the transform's `i16` domain.
    fn widen(self) -> i16;
    /// `variant`'s pass over this lane type.
    #[doc(hidden)]
    fn pass_for(variant: KernelVariant) -> fn(&[&[Self]], &mut [i16], usize);
}

impl BtLane for i8 {
    #[inline(always)]
    fn widen(self) -> i16 {
        i16::from(self)
    }
    fn pass_for(variant: KernelVariant) -> BtPass<i8> {
        soa_ops_for(variant).bt_pass_i8
    }
}

impl BtLane for i16 {
    #[inline(always)]
    fn widen(self) -> i16 {
        self
    }
    fn pass_for(variant: KernelVariant) -> BtPass<i16> {
        soa_ops_for(variant).bt_pass_i16
    }
}

/// The 1-D input transform `Bᵀ·d` of F(2×2, 3×3) (`src.len() == 4`) or
/// F(4×4, 3×3) (`src.len() == 6`) across lanes: `dst[r · stride + i] =
/// Σ_k Bᵀ[r][k] · src[k][i]`, in the hand-factored shift-and-add form of the
/// paper's transformation engines instead of a matrix product. Exact while
/// the result fits `i16` (the integer pipeline proves `128·‖Bᵀ‖∞²` does).
///
/// # Panics
///
/// Panics if `src` is not 4 or 6 rows at least as long as the first, or
/// `dst` is too short.
pub fn wino_bt_pass_with<I: BtLane>(
    variant: KernelVariant,
    src: &[&[I]],
    dst: &mut [i16],
    stride: usize,
) {
    I::pass_for(variant)(src, dst, stride);
}

#[inline(always)]
fn bt_f2(d: [i16; 4]) -> [i16; 4] {
    [d[0] - d[2], d[1] + d[2], d[2] - d[1], d[1] - d[3]]
}

/// Twelve adds and six small multiplies (shifts) where the matrix form
/// spends 36 multiply-adds.
#[inline(always)]
fn bt_f4(d: [i16; 6]) -> [i16; 6] {
    let (a, b) = (d[4] - 4 * d[2], d[3] - 4 * d[1]);
    let (c, e) = (d[4] - d[2], 2 * (d[3] - d[1]));
    [
        4 * d[0] - 5 * d[2] + d[4],
        a + b,
        a - b,
        c + e,
        c - e,
        4 * d[1] - 5 * d[3] + d[5],
    ]
}

/// `$block::<…, L>(…, i)` for the `L`-lane blocks covering `0..n` (`n ≥ L`, or
/// `n == 0`); a ragged end re-runs the last full block (callers' sources and
/// destinations never alias, so recomputing lanes is idempotent). A macro, not
/// a closure-taking function: everything must inline into the ISA wrapper.
macro_rules! lane_blocks {
    ($n:expr, $l:literal, $block:ident::<$($g:tt),*>($($arg:expr),*)) => {{
        let (lanes, mut i): (usize, usize) = ($l, 0);
        while i + lanes <= $n {
            $block::<$($g,)* $l>($($arg,)* i);
            i += lanes;
        }
        if i < $n {
            $block::<$($g,)* $l>($($arg,)* $n - lanes);
        }
    }};
}

/// Lanes `i..i + L` of a `Bᵀ` pass.
#[inline(always)]
fn bt_block<I: BtLane, const T: usize, const L: usize>(
    src: &[&[I]],
    dst: &mut [i16],
    stride: usize,
    bt: impl Fn([i16; T]) -> [i16; T],
    i: usize,
) {
    let mut d = [[0_i16; L]; T];
    for (dk, row) in d.iter_mut().zip(src) {
        for (dl, s) in dk.iter_mut().zip(&row[i..i + L]) {
            *dl = s.widen();
        }
    }
    let mut out = [[0_i16; L]; T];
    for l in 0..L {
        let col = bt(std::array::from_fn(|k| d[k][l]));
        for k in 0..T {
            out[k][l] = col[k];
        }
    }
    for (k, row) in out.iter().enumerate() {
        dst[k * stride + i..][..L].copy_from_slice(row);
    }
}

#[inline(always)]
fn bt_pass_body<I: BtLane>(src: &[&[I]], dst: &mut [i16], stride: usize) {
    let n = src[0].len();
    match (src.len(), n) {
        (4, 32..) => lane_blocks!(n, 32, bt_block::<I, 4>(src, dst, stride, bt_f2)),
        (4, 8..) => lane_blocks!(n, 8, bt_block::<I, 4>(src, dst, stride, bt_f2)),
        (4, _) => lane_blocks!(n, 1, bt_block::<I, 4>(src, dst, stride, bt_f2)),
        (6, 32..) => lane_blocks!(n, 32, bt_block::<I, 6>(src, dst, stride, bt_f4)),
        (6, 8..) => lane_blocks!(n, 8, bt_block::<I, 6>(src, dst, stride, bt_f4)),
        (6, _) => lane_blocks!(n, 1, bt_block::<I, 6>(src, dst, stride, bt_f4)),
        (t, _) => panic!("wino_bt_pass: no integer engine for {t}x{t} input tiles"),
    }
}

/// Tiles per [`wino_deinterleave_with`] step: it writes whole steps, so tile-lane
/// rows need up to `DEINTERLEAVE_LANES - 1` lanes of slack past their last
/// tile and transformed rows one tile step plus this many of padding.
pub const DEINTERLEAVE_LANES: usize = 16;

/// How one [`wino_deinterleave_with`] call addresses its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileLanes {
    /// Output tile edge `m` (2 or 4), the pixel step between tiles.
    pub m: usize,
    /// Tiles per transformed row.
    pub tiles: usize,
    /// Elements between consecutive transformed rows.
    pub row_len: usize,
    /// Elements between consecutive tile-lane rows.
    pub stride: usize,
}

/// Transformed image rows to tile lanes: for each of the `m + 2` rows of
/// `rows` (pixel `x` at element `x + 1`, behind the left border) and each
/// `dx`, `dst[(r · (m + 2) + dx) · stride + tx] = row_r[tx · m + dx]` for
/// `tx < tiles` — the strided reads of the `m`-pixel tile step done as one
/// shift-and-narrow per [`DEINTERLEAVE_LANES`] tiles. Lanes `tiles..` up to
/// the next multiple of [`DEINTERLEAVE_LANES`] are clobbered.
///
/// # Panics
///
/// Panics if `at.m` is not 2 or 4, a row is shorter than
/// `(tiles.next_multiple_of(DEINTERLEAVE_LANES) + 1) · m`, or `dst` cannot
/// hold the clobbered lanes.
pub fn wino_deinterleave_with(
    variant: KernelVariant,
    rows: &[i16],
    dst: &mut [i16],
    at: TileLanes,
) {
    (soa_ops_for(variant).deinterleave)(rows, dst, at);
}

#[inline(always)]
fn deinterleave_steps<W: Copy + Into<u64>, const M: usize>(
    rows: &[i16],
    dst: &mut [i16],
    at: TileLanes,
) {
    const C: usize = DEINTERLEAVE_LANES;
    let t = M + 2;
    assert!(rows.len() >= t * at.row_len, "wino_deinterleave: rows");
    for (r, row) in rows.chunks_exact(at.row_len).take(t).enumerate() {
        let dst = &mut dst[r * t * at.stride..];
        // One tile step's `M` pixels as one integer `W` (`u32` for F2, `u64`
        // for F4), pixel `j` in bits `16j..16j + 16`.
        // SAFETY: every bit pattern is a valid integer, which is all
        // `align_to` needs to reinterpret the aligned middle of the row.
        let (head, steps, _) = unsafe { row.align_to::<W>() };
        if !head.is_empty() || cfg!(target_endian = "big") {
            // A row off the step's alignment: plain strided copies.
            for dx in 0..t {
                for tx in 0..at.tiles {
                    dst[dx * at.stride + tx] = row[tx * M + dx];
                }
            }
            continue;
        }
        for tx0 in (0..at.tiles).step_by(C) {
            for dx in 0..t {
                let mut lanes = [0_i16; C];
                for (lane, step) in lanes.iter_mut().zip(&steps[tx0 + dx / M..][..C]) {
                    *lane = ((*step).into() >> (16 * (dx % M))) as i16;
                }
                dst[dx * at.stride + tx0..][..C].copy_from_slice(&lanes);
            }
        }
    }
}

#[inline(always)]
fn deinterleave_body(rows: &[i16], dst: &mut [i16], at: TileLanes) {
    match at.m {
        2 => deinterleave_steps::<u32, 2>(rows, dst, at),
        4 => deinterleave_steps::<u64, 4>(rows, dst, at),
        m => panic!("wino_deinterleave: no integer engine for F{m}"),
    }
}

/// `Aᵀ` of F(2×2, 3×3) and F(4×4, 3×3) — the output transforms
/// [`wino_output_stage_with`] implements.
const AT_F2: [[f32; 4]; 2] = [[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, -1.0, -1.0]];
const AT_F4: [[f32; 6]; 4] = [
    [1.0, 1.0, 1.0, 1.0, 1.0, 0.0],
    [0.0, 1.0, -1.0, 2.0, -2.0, 0.0],
    [0.0, 1.0, 1.0, 4.0, 4.0, 0.0],
    [0.0, 1.0, -1.0, 8.0, -8.0, 1.0],
];

/// The row-major `Aᵀ` (`(t − 2) × t`) [`wino_output_stage_with`] applies
/// for `t × t` input tiles, for callers to check their matrices against.
pub fn wino_output_matrix(t: usize) -> Option<&'static [f32]> {
    match t {
        4 => Some(AT_F2.as_flattened()),
        6 => Some(AT_F4.as_flattened()),
        _ => None,
    }
}

/// How one [`wino_output_stage_with`] call addresses its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputLanes {
    /// Input tile edge `t` (4 or 6); the output tile edge is `m = t − 2`.
    pub t: usize,
    /// Lanes (tiles, or output channels on channel-laned layers).
    pub n: usize,
    /// Accumulators between consecutive taps of one lane.
    pub tap_stride: usize,
    /// Output elements between consecutive lanes (1: contiguous lane rows).
    pub lane_stride: usize,
    /// Output elements between consecutive output pixels `r·m + c`.
    pub rc_stride: usize,
}

/// The integer pipeline's output stage over `n` lanes, register-blocked: the
/// `t²` accumulators of lane `i` (`acc[tap · tap_stride + i]`) are rescaled
/// with the per-tap `S_BG` (`acc as f32 · sbg[tap]`) and back-transformed
/// with `Aᵀ · M · A`, output pixel `rc` landing at `dst[rc · rc_stride + i ·
/// lane_stride]`. Every sum starts from `+0.0` and adds `coeff · x` (zero
/// coefficients skipped) term by term in `k` order, multiply and add rounded
/// separately: the scalar reference's bits on every variant.
///
/// # Panics
///
/// Panics if `lanes.t` is not 4 or 6 or a slice is too short.
pub fn wino_output_stage_with(
    variant: KernelVariant,
    acc: &[i32],
    sbg: &[f32],
    dst: &mut [f32],
    lanes: OutputLanes,
) {
    (soa_ops_for(variant).output_stage)(acc, sbg, dst, lanes);
}

/// Lanes `i..i + L` of an output stage.
#[inline(always)]
fn output_block<const T: usize, const M: usize, const L: usize>(
    acc: &[i32],
    sbg: &[f32],
    dst: &mut [f32],
    at: &[[f32; T]; M],
    lanes: OutputLanes,
    i: usize,
) {
    // Stage 1, a tap column at a time: b[r][c] = Σ_k Aᵀ[r][k] · e[k][c].
    let mut b = [[[0.0_f32; L]; T]; M];
    for c in 0..T {
        let mut e = [[0.0_f32; L]; T];
        for (k, ek) in e.iter_mut().enumerate() {
            let tap = k * T + c;
            let src = &acc[tap * lanes.tap_stride + i..][..L];
            for (el, &a) in ek.iter_mut().zip(src) {
                *el = a as f32 * sbg[tap];
            }
        }
        for (br, at_r) in b.iter_mut().zip(at) {
            for (ek, &coeff) in e.iter().zip(at_r) {
                if coeff != 0.0 {
                    for (s, &x) in br[c].iter_mut().zip(ek) {
                        *s += coeff * x;
                    }
                }
            }
        }
    }
    // Stage 2: out[r][c] = Σ_k b[r][k] · Aᵀ[c][k].
    for (r, br) in b.iter().enumerate() {
        for (c, at_c) in at.iter().enumerate() {
            let mut out = [0.0_f32; L];
            for (bk, &coeff) in br.iter().zip(at_c) {
                if coeff != 0.0 {
                    for (s, &x) in out.iter_mut().zip(bk) {
                        *s += coeff * x;
                    }
                }
            }
            let at = (r * M + c) * lanes.rc_stride + i * lanes.lane_stride;
            if lanes.lane_stride == 1 {
                dst[at..][..L].copy_from_slice(&out);
            } else {
                for (l, &s) in out.iter().enumerate() {
                    dst[at + l * lanes.lane_stride] = s;
                }
            }
        }
    }
}

#[inline(always)]
fn output_stage_body(acc: &[i32], sbg: &[f32], dst: &mut [f32], lanes: OutputLanes) {
    let (n, f2, f4) = (lanes.n, &AT_F2, &AT_F4);
    match (lanes.t, n) {
        (4, 16..) => lane_blocks!(n, 16, output_block::<4, 2>(acc, sbg, dst, f2, lanes)),
        (4, 4..) => lane_blocks!(n, 4, output_block::<4, 2>(acc, sbg, dst, f2, lanes)),
        (4, _) => lane_blocks!(n, 1, output_block::<4, 2>(acc, sbg, dst, f2, lanes)),
        (6, 16..) => lane_blocks!(n, 16, output_block::<6, 4>(acc, sbg, dst, f4, lanes)),
        (6, 4..) => lane_blocks!(n, 4, output_block::<6, 4>(acc, sbg, dst, f4, lanes)),
        (6, _) => lane_blocks!(n, 1, output_block::<6, 4>(acc, sbg, dst, f4, lanes)),
        (t, _) => panic!("wino_output_stage: no engine for {t}x{t} input tiles"),
    }
}

/// `pub fn $name(args)`: the generic body `$body` compiled under the target
/// features `$features`.
#[allow(unused_macros)] // unused on targets without a vector ISA
macro_rules! isa_instance {
    ($features:literal, $body:ident, $name:ident$(<$g:ident: $b:ident>)?($($arg:ident: $ty:ty),*)) => {
        pub fn $name$(<$g: $crate::simd::$b>)?($($arg: $ty),*) {
            #[target_feature(enable = $features)]
            unsafe fn isa$(<$g: $crate::simd::$b>)?($($arg: $ty),*) {
                $crate::simd::$body($($arg),*)
            }
            // SAFETY: dispatch verified the target features.
            unsafe { isa($($arg),*) }
        }
    };
}

/// The transform-engine bodies compiled under one ISA's target features.
#[allow(unused_macros)]
macro_rules! engine_instances {
    ($f:literal) => {
        isa_instance!($f, bt_pass_body, bt_pass<I: BtLane>(src: &[&[I]], dst: &mut [i16], stride: usize));
        isa_instance!($f, deinterleave_body, deinterleave(rows: &[i16], dst: &mut [i16], at: $crate::simd::TileLanes));
        isa_instance!($f, output_stage_body, output_stage(acc: &[i32], sbg: &[f32], dst: &mut [f32], lanes: $crate::simd::OutputLanes));
    };
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        lane_field, quantize_f32_i8_scalar, quantize_panel_tail, reciprocal_if_exact,
        requant_f32_scalar, PanelCode, PanelSlot, SlotCursor,
    };
    use core::arch::x86_64::*;

    pub fn quantize_f32_i8_avx2(
        dst: &mut [i8],
        src: &[f32],
        scale: f32,
        bias: f32,
        lo: i32,
        hi: i32,
    ) {
        // SAFETY: dispatch verified avx2 support.
        unsafe { quantize_f32_i8_avx2_impl(dst, src, scale, bias, lo, hi) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn quantize_f32_i8_avx2_impl(
        dst: &mut [i8],
        src: &[f32],
        scale: f32,
        bias: f32,
        lo: i32,
        hi: i32,
    ) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let sc = _mm256_set1_ps(scale);
        let bi = _mm256_set1_ps(bias);
        let lov = _mm256_set1_ps(lo as f32);
        let hiv = _mm256_set1_ps(hi as f32);
        // Byte 0 of each clamped dword, gathered per 128-bit half.
        #[rustfmt::skip]
        let shuf = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_div_ps(_mm256_add_ps(_mm256_loadu_ps(s.add(i)), bi), sc);
            // max-then-min in the float domain, exactly like the scalar
            // expression (including the NaN-propagation order of maxps).
            let v = _mm256_min_ps(_mm256_max_ps(v, lov), hiv);
            let q = _mm256_cvtps_epi32(v);
            let packed = _mm256_shuffle_epi8(q, shuf);
            (d.add(i) as *mut i32).write_unaligned(_mm256_extract_epi32(packed, 0));
            (d.add(i + 4) as *mut i32).write_unaligned(_mm256_extract_epi32(packed, 4));
            i += 8;
        }
        quantize_f32_i8_scalar(&mut dst[i..], &src[i..], scale, bias, lo, hi);
    }

    pub fn quantize_panel_avx2<E: PanelCode>(
        dst: &mut [E],
        src: &[i16],
        scale: f32,
        lo: i32,
        hi: i32,
        flip: bool,
        slot: PanelSlot,
    ) {
        // SAFETY: dispatch verified avx2 support; the public entry checked
        // that every lane's slot lies inside `dst`.
        unsafe { quantize_panel_avx2_impl(dst, src, scale, lo, hi, flip, slot) }
    }

    /// Eight lanes per step, then the scalar tail.
    ///
    /// # Safety
    ///
    /// Requires avx2, and `dst` must hold the slot of every lane of `src`.
    #[target_feature(enable = "avx2")]
    unsafe fn quantize_panel_avx2_impl<E: PanelCode>(
        dst: &mut [E],
        src: &[i16],
        scale: f32,
        lo: i32,
        hi: i32,
        flip: bool,
        slot: PanelSlot,
    ) {
        let Some((slot_bytes, owned, shift)) = lane_field::<E>(slot, 8) else {
            return quantize_panel_tail(dst, src, 0, scale, lo, hi, flip, slot);
        };
        // Byte selector: 0xFF on the bytes this row owns in every lane slot.
        let mut pat = [0u8; 32];
        for (b, m) in pat.iter_mut().enumerate() {
            if (owned >> (b % slot_bytes)) & 1 == 1 {
                *m = 0xFF;
            }
        }
        let sel = _mm256_loadu_si256(pat.as_ptr() as *const __m256i);
        let e_bits = 8 * std::mem::size_of::<E>() as u32;
        let emask = _mm256_set1_epi32(((1u64 << e_bits) - 1) as i32);
        let flipv = _mm256_set1_epi32(if flip { 1 << (e_bits - 1) } else { 0 });
        let count = _mm_cvtsi32_si128(shift as i32);
        // Byte 0 of each dword, gathered per 128-bit half (1-byte slots).
        #[rustfmt::skip]
        let shuf = _mm256_setr_epi8(
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
            0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
        );
        let (factor, multiply) = reciprocal_if_exact(scale);
        let fv = _mm256_set1_ps(factor);
        let lov = _mm256_set1_ps(lo as f32);
        let hiv = _mm256_set1_ps(hi as f32);
        let (n, s) = (src.len(), src.as_ptr());
        let mut cur = SlotCursor::new(slot, 0);
        let mut i = 0;
        while i + 8 <= n {
            let lanes = _mm256_cvtepi16_epi32(_mm_loadu_si128(s.add(i) as *const __m128i));
            let v = _mm256_cvtepi32_ps(lanes);
            let v = if multiply {
                _mm256_mul_ps(v, fv)
            } else {
                _mm256_div_ps(v, fv)
            };
            let v = _mm256_min_ps(_mm256_max_ps(v, lov), hiv);
            let q = _mm256_cvtps_epi32(v);
            // The code's low bytes (sign-flipped on request) moved to this
            // row's position inside the lane slot.
            let field =
                _mm256_sll_epi32(_mm256_xor_si256(_mm256_and_si256(q, emask), flipv), count);
            // Lanes i..i+8 share a panel (`width % 8 == 0`), so their slots
            // are `8 · slot_bytes` contiguous bytes from here.
            let p = dst.as_mut_ptr().add(cur.at()) as *mut u8;
            cur.advance(8);
            match slot_bytes {
                4 => {
                    let old = _mm256_loadu_si256(p as *const __m256i);
                    _mm256_storeu_si256(p as *mut __m256i, _mm256_blendv_epi8(old, field, sel));
                }
                2 => {
                    // Fields are < 2^16: the unsigned saturating pack is
                    // lossless. It interleaves 128-bit halves; qwords 0 and
                    // 2 hold lanes 0..3 and 4..7.
                    let w = _mm256_packus_epi32(field, field);
                    let w = _mm256_castsi256_si128(_mm256_permute4x64_epi64::<0b1000>(w));
                    let old = _mm_loadu_si128(p as *const __m128i);
                    let new = _mm_blendv_epi8(old, w, _mm256_castsi256_si128(sel));
                    _mm_storeu_si128(p as *mut __m128i, new);
                }
                _ => {
                    let b = _mm256_shuffle_epi8(field, shuf);
                    (p as *mut i32).write_unaligned(_mm256_extract_epi32(b, 0));
                    (p.add(4) as *mut i32).write_unaligned(_mm256_extract_epi32(b, 4));
                }
            }
            i += 8;
        }
        // Inside the `target_feature` body so the tail's rounding compiles to
        // the hardware instruction rather than a libm call.
        quantize_panel_tail(dst, src, i, scale, lo, hi, flip, slot);
    }

    pub fn requant_f32_avx2(dst: &mut [f32], src: &[f32], scale: f32, bias: f32, lo: i32, hi: i32) {
        // SAFETY: dispatch verified avx2 support.
        unsafe { requant_f32_avx2_impl(dst, src, scale, bias, lo, hi) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn requant_f32_avx2_impl(
        dst: &mut [f32],
        src: &[f32],
        scale: f32,
        bias: f32,
        lo: i32,
        hi: i32,
    ) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let sc = _mm256_set1_ps(scale);
        let bi = _mm256_set1_ps(bias);
        let lov = _mm256_set1_ps(lo as f32);
        let hiv = _mm256_set1_ps(hi as f32);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_div_ps(_mm256_add_ps(_mm256_loadu_ps(s.add(i)), bi), sc);
            let v = _mm256_min_ps(_mm256_max_ps(v, lov), hiv);
            let q = _mm256_cvtps_epi32(v);
            _mm256_storeu_ps(d.add(i), _mm256_mul_ps(_mm256_cvtepi32_ps(q), sc));
            i += 8;
        }
        requant_f32_scalar(&mut dst[i..], &src[i..], scale, bias, lo, hi);
    }

    pub fn quantize_f32_i8_avx512(
        dst: &mut [i8],
        src: &[f32],
        scale: f32,
        bias: f32,
        lo: i32,
        hi: i32,
    ) {
        // SAFETY: dispatch verified avx512f support.
        unsafe { quantize_f32_i8_avx512_impl(dst, src, scale, bias, lo, hi) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn quantize_f32_i8_avx512_impl(
        dst: &mut [i8],
        src: &[f32],
        scale: f32,
        bias: f32,
        lo: i32,
        hi: i32,
    ) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let sc = _mm512_set1_ps(scale);
        let bi = _mm512_set1_ps(bias);
        let lov = _mm512_set1_ps(lo as f32);
        let hiv = _mm512_set1_ps(hi as f32);
        let mut i = 0;
        while i + 16 <= n {
            let v = _mm512_div_ps(_mm512_add_ps(_mm512_loadu_ps(s.add(i)), bi), sc);
            let v = _mm512_min_ps(_mm512_max_ps(v, lov), hiv);
            let q = _mm512_cvtps_epi32(v);
            _mm_storeu_si128(d.add(i) as *mut __m128i, _mm512_cvtepi32_epi8(q));
            i += 16;
        }
        quantize_f32_i8_scalar(&mut dst[i..], &src[i..], scale, bias, lo, hi);
    }

    pub fn quantize_panel_avx512<E: PanelCode>(
        dst: &mut [E],
        src: &[i16],
        scale: f32,
        lo: i32,
        hi: i32,
        flip: bool,
        slot: PanelSlot,
    ) {
        // SAFETY: dispatch verified avx512f + avx512bw support; the public
        // entry checked that every lane's slot lies inside `dst`.
        unsafe { quantize_panel_avx512_impl(dst, src, scale, lo, hi, flip, slot) }
    }

    /// Sixteen lanes per step, then the scalar tail.
    ///
    /// # Safety
    ///
    /// Requires avx512f + avx512bw, and `dst` must hold the slot of every
    /// lane of `src`.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn quantize_panel_avx512_impl<E: PanelCode>(
        dst: &mut [E],
        src: &[i16],
        scale: f32,
        lo: i32,
        hi: i32,
        flip: bool,
        slot: PanelSlot,
    ) {
        let Some((slot_bytes, owned, shift)) = lane_field::<E>(slot, 16) else {
            return quantize_panel_tail(dst, src, 0, scale, lo, hi, flip, slot);
        };
        // One store-mask bit per destination byte: the bytes this row owns
        // in each of the 16 lane slots.
        let every_slot: u64 = match slot_bytes {
            4 => 0x1111_1111_1111_1111,
            2 => 0x5555_5555,
            _ => 0xFFFF,
        };
        let kmask = u64::from(owned) * every_slot;
        let e_bits = 8 * std::mem::size_of::<E>() as u32;
        let emask = _mm512_set1_epi32(((1u64 << e_bits) - 1) as i32);
        let flipv = _mm512_set1_epi32(if flip { 1 << (e_bits - 1) } else { 0 });
        let count = _mm_cvtsi32_si128(shift as i32);
        let (factor, multiply) = reciprocal_if_exact(scale);
        let fv = _mm512_set1_ps(factor);
        let lov = _mm512_set1_ps(lo as f32);
        let hiv = _mm512_set1_ps(hi as f32);
        let (n, s) = (src.len(), src.as_ptr());
        let mut cur = SlotCursor::new(slot, 0);
        let mut i = 0;
        while i + 16 <= n {
            let lanes = _mm512_cvtepi16_epi32(_mm256_loadu_si256(s.add(i) as *const __m256i));
            let v = _mm512_cvtepi32_ps(lanes);
            let v = if multiply {
                _mm512_mul_ps(v, fv)
            } else {
                _mm512_div_ps(v, fv)
            };
            let v = _mm512_min_ps(_mm512_max_ps(v, lov), hiv);
            let q = _mm512_cvtps_epi32(v);
            // The code's low bytes (sign-flipped on request) moved to this
            // row's position inside the lane slot, then the lanes narrowed
            // (truncating) to the slot width.
            let field =
                _mm512_sll_epi32(_mm512_xor_si512(_mm512_and_si512(q, emask), flipv), count);
            let packed = match slot_bytes {
                4 => field,
                2 => _mm512_castsi256_si512(_mm512_cvtepi32_epi16(field)),
                _ => _mm512_castsi128_si512(_mm512_cvtepi32_epi8(field)),
            };
            // Lanes i..i+16 share a panel (`width % 16 == 0`), so their
            // slots are `16 · slot_bytes` contiguous bytes from here; the
            // mask leaves every other byte — the group's other `K` steps and
            // everything past the slots — untouched and unaccessed.
            let p = dst.as_mut_ptr().add(cur.at()) as *mut i8;
            cur.advance(16);
            _mm512_mask_storeu_epi8(p, kmask, packed);
            i += 16;
        }
        // Inside the `target_feature` body so the tail's rounding compiles to
        // the hardware instruction rather than a libm call.
        quantize_panel_tail(dst, src, i, scale, lo, hi, flip, slot);
    }

    pub fn requant_f32_avx512(
        dst: &mut [f32],
        src: &[f32],
        scale: f32,
        bias: f32,
        lo: i32,
        hi: i32,
    ) {
        // SAFETY: dispatch verified avx512f support.
        unsafe { requant_f32_avx512_impl(dst, src, scale, bias, lo, hi) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn requant_f32_avx512_impl(
        dst: &mut [f32],
        src: &[f32],
        scale: f32,
        bias: f32,
        lo: i32,
        hi: i32,
    ) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let sc = _mm512_set1_ps(scale);
        let bi = _mm512_set1_ps(bias);
        let lov = _mm512_set1_ps(lo as f32);
        let hiv = _mm512_set1_ps(hi as f32);
        let mut i = 0;
        while i + 16 <= n {
            let v = _mm512_div_ps(_mm512_add_ps(_mm512_loadu_ps(s.add(i)), bi), sc);
            let v = _mm512_min_ps(_mm512_max_ps(v, lov), hiv);
            let q = _mm512_cvtps_epi32(v);
            _mm512_storeu_ps(d.add(i), _mm512_mul_ps(_mm512_cvtepi32_ps(q), sc));
            i += 16;
        }
        requant_f32_scalar(&mut dst[i..], &src[i..], scale, bias, lo, hi);
    }

    pub fn axpy_f32_avx2(dst: &mut [f32], coeff: f32, src: &[f32]) {
        // SAFETY: dispatch verified avx2+fma support.
        unsafe { axpy_f32_avx2_impl(dst, coeff, src) }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn axpy_f32_avx2_impl(dst: &mut [f32], coeff: f32, src: &[f32]) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let c = _mm256_set1_ps(coeff);
        let mut i = 0;
        while i + 8 <= n {
            let acc = _mm256_fmadd_ps(c, _mm256_loadu_ps(s.add(i)), _mm256_loadu_ps(d.add(i)));
            _mm256_storeu_ps(d.add(i), acc);
            i += 8;
        }
        super::axpy_f32_fused_tail(&mut dst[i..], coeff, &src[i..]);
    }

    pub fn axpy_f32_avx512(dst: &mut [f32], coeff: f32, src: &[f32]) {
        // SAFETY: dispatch verified avx512f support.
        unsafe { axpy_f32_avx512_impl(dst, coeff, src) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn axpy_f32_avx512_impl(dst: &mut [f32], coeff: f32, src: &[f32]) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let c = _mm512_set1_ps(coeff);
        let mut i = 0;
        while i + 16 <= n {
            let acc = _mm512_fmadd_ps(c, _mm512_loadu_ps(s.add(i)), _mm512_loadu_ps(d.add(i)));
            _mm512_storeu_ps(d.add(i), acc);
            i += 16;
        }
        super::axpy_f32_fused_tail(&mut dst[i..], coeff, &src[i..]);
    }

    pub mod avx2 {
        engine_instances!("avx2");
    }

    pub mod avx512 {
        engine_instances!("avx512f,avx512bw");
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{
        lane_field, quantize_f32_i8_scalar, quantize_panel_tail, reciprocal_if_exact,
        requant_f32_scalar, PanelCode, PanelSlot, SlotCursor,
    };
    use core::arch::aarch64::*;

    pub fn quantize_f32_i8_neon(
        dst: &mut [i8],
        src: &[f32],
        scale: f32,
        bias: f32,
        lo: i32,
        hi: i32,
    ) {
        // SAFETY: dispatch verified NEON support.
        unsafe { quantize_f32_i8_neon_impl(dst, src, scale, bias, lo, hi) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn quantize_f32_i8_neon_impl(
        dst: &mut [i8],
        src: &[f32],
        scale: f32,
        bias: f32,
        lo: i32,
        hi: i32,
    ) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let sc = vdupq_n_f32(scale);
        let bi = vdupq_n_f32(bias);
        let lov = vdupq_n_f32(lo as f32);
        let hiv = vdupq_n_f32(hi as f32);
        let mut i = 0;
        while i + 8 <= n {
            let v0 = vdivq_f32(vaddq_f32(vld1q_f32(s.add(i)), bi), sc);
            let v1 = vdivq_f32(vaddq_f32(vld1q_f32(s.add(i + 4)), bi), sc);
            let v0 = vminq_f32(vmaxq_f32(v0, lov), hiv);
            let v1 = vminq_f32(vmaxq_f32(v1, lov), hiv);
            // vcvtnq rounds half-to-even, matching `round_ties_even`.
            let q0 = vcvtnq_s32_f32(v0);
            let q1 = vcvtnq_s32_f32(v1);
            // Clamped to [lo, hi] ⊆ i8: saturating narrows are lossless.
            let h = vcombine_s16(vqmovn_s32(q0), vqmovn_s32(q1));
            vst1_s8(d.add(i), vqmovn_s16(h));
            i += 8;
        }
        quantize_f32_i8_scalar(&mut dst[i..], &src[i..], scale, bias, lo, hi);
    }

    pub fn quantize_panel_neon<E: PanelCode>(
        dst: &mut [E],
        src: &[i16],
        scale: f32,
        lo: i32,
        hi: i32,
        flip: bool,
        slot: PanelSlot,
    ) {
        // SAFETY: dispatch verified NEON support; the public entry checked
        // that every lane's slot lies inside `dst`.
        unsafe { quantize_panel_neon_impl(dst, src, scale, lo, hi, flip, slot) }
    }

    /// Four lanes per step, then the scalar tail.
    ///
    /// # Safety
    ///
    /// Requires NEON, and `dst` must hold the slot of every lane of `src`.
    #[target_feature(enable = "neon")]
    unsafe fn quantize_panel_neon_impl<E: PanelCode>(
        dst: &mut [E],
        src: &[i16],
        scale: f32,
        lo: i32,
        hi: i32,
        flip: bool,
        slot: PanelSlot,
    ) {
        let Some((slot_bytes, owned, shift)) = lane_field::<E>(slot, 4) else {
            return quantize_panel_tail(dst, src, 0, scale, lo, hi, flip, slot);
        };
        // Bit selector: all-ones on the bytes this row owns in a lane slot.
        let sel_bits = (0..4).fold(0u32, |m, b| m | ((owned >> b) & 1) * (0xFF << (8 * b)));
        let e_bits = 8 * std::mem::size_of::<E>() as u32;
        let emask = vdupq_n_u32(((1u64 << e_bits) - 1) as u32);
        let flipv = vdupq_n_u32(if flip { 1 << (e_bits - 1) } else { 0 });
        let count = vdupq_n_s32(shift as i32);
        let (factor, multiply) = reciprocal_if_exact(scale);
        let fv = vdupq_n_f32(factor);
        let lov = vdupq_n_f32(lo as f32);
        let hiv = vdupq_n_f32(hi as f32);
        let (n, s) = (src.len(), src.as_ptr());
        let mut cur = SlotCursor::new(slot, 0);
        let mut i = 0;
        while i + 4 <= n {
            let v = vcvtq_f32_s32(vmovl_s16(vld1_s16(s.add(i))));
            let v = if multiply {
                vmulq_f32(v, fv)
            } else {
                vdivq_f32(v, fv)
            };
            let v = vminq_f32(vmaxq_f32(v, lov), hiv);
            // vcvtnq rounds half-to-even, matching `round_ties_even`.
            let q = vreinterpretq_u32_s32(vcvtnq_s32_f32(v));
            // The code's low bytes (sign-flipped on request) moved to this
            // row's position inside the lane slot.
            let field = vshlq_u32(veorq_u32(vandq_u32(q, emask), flipv), count);
            // Lanes i..i+4 share a panel (`width % 4 == 0`), so their slots
            // are `4 · slot_bytes` contiguous bytes from here.
            let p = dst.as_mut_ptr().add(cur.at()) as *mut u8;
            cur.advance(4);
            match slot_bytes {
                4 => {
                    let p = p as *mut u32;
                    vst1q_u32(p, vbslq_u32(vdupq_n_u32(sel_bits), field, vld1q_u32(p)));
                }
                2 => {
                    let p = p as *mut u16;
                    let sel = vdup_n_u16(sel_bits as u16);
                    vst1_u16(p, vbsl_u16(sel, vmovn_u32(field), vld1_u16(p)));
                }
                _ => {
                    let h = vmovn_u32(field);
                    let b = vreinterpret_u32_u8(vmovn_u16(vcombine_u16(h, h)));
                    (p as *mut u32).write_unaligned(vget_lane_u32::<0>(b));
                }
            }
            i += 4;
        }
        quantize_panel_tail(dst, src, i, scale, lo, hi, flip, slot);
    }

    pub fn requant_f32_neon(dst: &mut [f32], src: &[f32], scale: f32, bias: f32, lo: i32, hi: i32) {
        // SAFETY: dispatch verified NEON support.
        unsafe { requant_f32_neon_impl(dst, src, scale, bias, lo, hi) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn requant_f32_neon_impl(
        dst: &mut [f32],
        src: &[f32],
        scale: f32,
        bias: f32,
        lo: i32,
        hi: i32,
    ) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let sc = vdupq_n_f32(scale);
        let bi = vdupq_n_f32(bias);
        let lov = vdupq_n_f32(lo as f32);
        let hiv = vdupq_n_f32(hi as f32);
        let mut i = 0;
        while i + 4 <= n {
            let v = vdivq_f32(vaddq_f32(vld1q_f32(s.add(i)), bi), sc);
            let v = vminq_f32(vmaxq_f32(v, lov), hiv);
            let q = vcvtnq_s32_f32(v);
            vst1q_f32(d.add(i), vmulq_f32(vcvtq_f32_s32(q), sc));
            i += 4;
        }
        requant_f32_scalar(&mut dst[i..], &src[i..], scale, bias, lo, hi);
    }

    pub fn axpy_f32_neon(dst: &mut [f32], coeff: f32, src: &[f32]) {
        // SAFETY: dispatch verified NEON support.
        unsafe { axpy_f32_neon_impl(dst, coeff, src) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn axpy_f32_neon_impl(dst: &mut [f32], coeff: f32, src: &[f32]) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 4 <= n {
            let acc = vfmaq_n_f32(vld1q_f32(d.add(i)), vld1q_f32(s.add(i)), coeff);
            vst1q_f32(d.add(i), acc);
            i += 4;
        }
        super::axpy_f32_fused_tail(&mut dst[i..], coeff, &src[i..]);
    }

    pub mod engines {
        engine_instances!("neon");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_names() {
        for v in KernelVariant::ALL {
            assert_eq!(KernelVariant::parse(v.name()), Some(v));
        }
        assert_eq!(KernelVariant::parse("AVX2"), Some(KernelVariant::Avx2));
        assert_eq!(KernelVariant::parse("mmx"), None);
    }

    #[test]
    fn scalar_is_always_available_and_detection_is_sane() {
        assert!(KernelVariant::Scalar.is_supported());
        let avail = available();
        assert!(avail.contains(&KernelVariant::Scalar));
        assert!(avail.contains(&detected()));
        assert!(avail.contains(&active()));
    }

    #[test]
    fn soa_primitives_match_scalar_on_every_length() {
        // Length sweep covers the vector body, the ragged tail and the
        // all-tail case on every variant the dispatch may have picked.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let src_f: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37) - 3.0).collect();
            let mut d1: Vec<f32> = (0..n).map(|i| i as f32 * 0.11).collect();
            let mut d2 = d1.clone();
            axpy_f32(&mut d1, 1.625, &src_f);
            axpy_f32_scalar(&mut d2, 1.625, &src_f);
            for (a, b) in d1.iter().zip(d2.iter()) {
                assert!((a - b).abs() <= 1e-5, "axpy_f32 drift at n={n}");
            }

            // The hand-factored `Bᵀ` passes against the matrix product, on
            // every variant: `i8` and `i16` lanes, F2 and F4, an offset
            // destination with a row stride wider than the lanes.
            for v in available() {
                for (t, bt) in [(4, &BT_F2[..]), (6, &BT_F4[..])] {
                    let rows8: Vec<Vec<i8>> = (0..t)
                        .map(|k| {
                            (0..n)
                                .map(|i| ((i * 37 + k * 101) % 256) as u8 as i8)
                                .collect()
                        })
                        .collect();
                    let rows16: Vec<Vec<i16>> = (0..t)
                        .map(|k| {
                            (0..n)
                                .map(|i| ((i * 331 + k * 977) % 2561) as i16 - 1280)
                                .collect()
                        })
                        .collect();
                    let stride = n + 3;
                    let want = |at: &dyn Fn(usize, usize) -> i32| -> Vec<i16> {
                        let mut w = vec![-7_i16; t * stride + 1];
                        for r in 0..t {
                            for i in 0..n {
                                let sum: i32 = (0..t).map(|k| bt[r * t + k] * at(k, i)).sum();
                                w[1 + r * stride + i] = sum as i16;
                            }
                        }
                        w
                    };
                    let mut got = vec![-7_i16; t * stride + 1];
                    let src: Vec<&[i8]> = rows8.iter().map(|r| &r[..]).collect();
                    wino_bt_pass_with(v, &src, &mut got[1..], stride);
                    let want8 = want(&|k, i| i32::from(rows8[k][i]));
                    assert_eq!(got, want8, "bt pass i8 t={t} {} n={n}", v.name());
                    let mut got = vec![-7_i16; t * stride + 1];
                    let src: Vec<&[i16]> = rows16.iter().map(|r| &r[..]).collect();
                    wino_bt_pass_with(v, &src, &mut got[1..], stride);
                    let want16 = want(&|k, i| i32::from(rows16[k][i]));
                    assert_eq!(got, want16, "bt pass i16 t={t} {} n={n}", v.name());
                }
            }
        }
    }

    /// `Bᵀ` of F(2×2, 3×3) and F(4×4, 3×3), row-major.
    const BT_F2: [i32; 16] = [1, 0, -1, 0, 0, 1, 1, 0, 0, -1, 1, 0, 0, 1, 0, -1];
    #[rustfmt::skip]
    const BT_F4: [i32; 36] = [
        4, 0, -5, 0, 1, 0,
        0, -4, -4, 1, 1, 0,
        0, 4, -4, -1, 1, 0,
        0, -2, -1, 2, 1, 0,
        0, 2, -1, -2, 1, 0,
        0, 4, 0, -5, 0, 1,
    ];

    #[test]
    fn deinterleave_matches_strided_copies_on_aligned_and_unaligned_rows() {
        for v in available() {
            for m in [2usize, 4] {
                let t = m + 2;
                for tiles in [1usize, 4, 14, 16, 17, 40] {
                    let row_len = (tiles.next_multiple_of(DEINTERLEAVE_LANES) + 1) * m;
                    let stride = 2 * tiles + DEINTERLEAVE_LANES;
                    // `skew` 1 starts every row one element off its alignment.
                    for skew in [0usize, 1] {
                        let backing: Vec<u64> = (0..t * row_len / 4 + 2)
                            .map(|i| (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                            .collect();
                        // SAFETY: any bits are a valid `i16`.
                        let (_, all, _) = unsafe { backing.align_to::<i16>() };
                        let rows = &all[skew..][..t * row_len];
                        let mut got = vec![0_i16; t * t * stride];
                        // The second strip's lanes, behind a first strip's.
                        let at = TileLanes {
                            m,
                            tiles,
                            row_len,
                            stride,
                        };
                        wino_deinterleave_with(v, rows, &mut got[tiles..], at);
                        for r in 0..t {
                            for dx in 0..t {
                                for tx in 0..tiles {
                                    assert_eq!(
                                        got[(r * t + dx) * stride + tiles + tx],
                                        rows[r * row_len + tx * m + dx],
                                        "{} m={m} tiles={tiles} skew={skew} r={r} dx={dx} tx={tx}",
                                        v.name()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quantize_primitives_match_scalar_bitwise_on_every_variant() {
        // Values cover the clamp extremes, exact halves (tie-to-even), zeros
        // and a spread of magnitudes; lengths cover vector body + tails.
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100] {
            let src_f: Vec<f32> = (0..n)
                .map(|i| match i % 7 {
                    0 => (i as f32) * 0.73 - 9.0,
                    1 => 1e9,   // saturates at hi
                    2 => -1e9,  // saturates at lo
                    3 => 0.375, // exact half after /0.25: ties-to-even
                    4 => -0.625,
                    5 => 0.0,
                    _ => (i as f32).sin() * 40.0,
                })
                .collect();
            let src_i: Vec<i16> = (0..n)
                .map(|i| ((i as i32 * 997 - 3000) % 20000) as i16)
                .collect();
            for v in available() {
                let mut q8 = vec![0_i8; n];
                let mut q8_ref = vec![0_i8; n];
                quantize_f32_i8_with(v, &mut q8, &src_f, 0.25, 0.5, -128, 127);
                quantize_f32_i8_scalar(&mut q8_ref, &src_f, 0.25, 0.5, -128, 127);
                assert_eq!(q8, q8_ref, "quantize_f32_i8 {} n={n}", v.name());
                // ReLU fusion: lo = 0.
                quantize_f32_i8_with(v, &mut q8, &src_f, 0.25, 0.0, 0, 127);
                quantize_f32_i8_scalar(&mut q8_ref, &src_f, 0.25, 0.0, 0, 127);
                assert_eq!(q8, q8_ref, "quantize_f32_i8 relu {} n={n}", v.name());

                // A general scale divides, a power-of-two one multiplies by
                // its reciprocal: the same codes either way.
                for scale in [37.5_f32, 32.0, 0.25] {
                    let slot = PanelSlot::CONTIGUOUS;
                    let mut q16 = vec![0_i16; n];
                    let mut q16_ref = vec![0_i16; n];
                    quantize_i16_i16_panel_with(v, &mut q16, &src_i, scale, -512, 511, false, slot);
                    quantize_panel_scalar(&mut q16_ref, &src_i, scale, -512, 511, false, slot);
                    assert_eq!(q16, q16_ref, "quantize i16 /{scale} {} n={n}", v.name());
                }

                let mut r = vec![0.0_f32; n];
                let mut r_ref = vec![0.0_f32; n];
                requant_f32_with(v, &mut r, &src_f, 0.125, -0.3, -128, 127);
                requant_f32_scalar(&mut r_ref, &src_f, 0.125, -0.3, -128, 127);
                assert_eq!(
                    r.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    r_ref.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "requant_f32 {} n={n}",
                    v.name()
                );
            }
        }
    }

    #[test]
    fn quantize_rounds_half_to_even() {
        // 0.5/1.0 → 0 (even), 1.5 → 2, 2.5 → 2, -0.5 → 0, -1.5 → -2.
        let src = [0.5_f32, 1.5, 2.5, -0.5, -1.5, 3.5, -2.5, 4.5];
        let mut q = [0_i8; 8];
        quantize_f32_i8(&mut q, &src, 1.0, 0.0, -128, 127);
        assert_eq!(q, [0, 2, 2, 0, -2, 4, -2, 4]);
    }
}
