//! Runtime SIMD kernel dispatch.
//!
//! The GEMM microkernels ([`crate::gemm`]), the SoA transform primitives and
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
//! [`quantize_f32_i8`], [`quantize_i32_i8_panel`] / [`quantize_i32_i16_panel`]
//! and [`requant_f32`] vectorize the integer Winograd pipeline's
//! scale+round+clamp steps (input quantization, tap-wise requantization, and
//! the requant/dequant epilogue). The tap-wise requantization writes its
//! codes **directly in the `K`-grouped panel layout the integer GEMM
//! microkernel reads** ([`PanelSlot`]), so no pack pass runs between the
//! input transform and the tap GEMMs; [`quantize_i32_i16`] is its contiguous
//! special case.
//! They are **bit-identical across variants for finite inputs**: every
//! variant divides (IEEE-exact), rounds half-to-even (`cvtps`/`vcvtnq`
//! hardware rounding = `f32::round_ties_even`) and clamps in the float
//! domain before the integer conversion, in the same order as the scalar
//! reference expression.
//!
//! # Adding an ISA variant
//!
//! 1. Add the enum case and its [`KernelVariant::name`] /
//!    [`KernelVariant::is_supported`] arms (compile-gate the probe on the
//!    target architecture).
//! 2. Rank it in [`KernelVariant::ALL`] (detection order, worst first).
//! 3. Provide microkernels in `gemm.rs` and dispatch arms in the
//!    `gemm_*_into_with` functions, plus SoA and quantize arms in this
//!    module's dispatch (a variant may reuse a weaker tier's
//!    implementations — `avx512vnni` shares the AVX-512 SoA bodies).
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
// SoA transform primitives.
//
// The batched Winograd congruence transforms operate on contiguous tile
// lanes (`dst[lane] ⊕= coeff · src[lane]`); these are their dispatched inner
// steps. Each is a safe wrapper around a per-variant implementation chosen
// through one cached function pointer, so the per-call overhead is a single
// indirect call over hundreds of lanes.
// ---------------------------------------------------------------------------

/// `(dst, src, scale, lo, hi, flip, slot)` — see [`quantize_i32_i8_panel`].
type PanelQuantize<E> = fn(&mut [E], &[i32], f32, i32, i32, bool, PanelSlot);

/// The resolved SoA primitive implementations of the active variant.
struct SoaOps {
    axpy_f32: fn(&mut [f32], f32, &[f32]),
    axpy_f32_unfused: fn(&mut [f32], f32, &[f32]),
    axpy_i32: fn(&mut [i32], i32, &[i32]),
    scale_i32_f32: fn(&mut [f32], &[i32], f32),
    quantize_f32_i8: fn(&mut [i8], &[f32], f32, f32, i32, i32),
    quantize_i32_i8_panel: PanelQuantize<i8>,
    quantize_i32_i16_panel: PanelQuantize<i16>,
    requant_f32: fn(&mut [f32], &[f32], f32, f32, i32, i32),
}

/// The SoA/quantize implementation table for one variant. The VNNI and
/// `dotprod` tiers only change the GEMM microkernels, so they share the
/// AVX-512 / NEON bodies here.
fn soa_ops_for(variant: KernelVariant) -> SoaOps {
    match variant {
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx2 => SoaOps {
            axpy_f32: x86::axpy_f32_avx2,
            axpy_f32_unfused: x86::axpy_f32_unfused_avx2,
            axpy_i32: x86::axpy_i32_avx2,
            scale_i32_f32: x86::scale_i32_f32_avx2,
            quantize_f32_i8: x86::quantize_f32_i8_avx2,
            quantize_i32_i8_panel: x86::quantize_panel_avx2::<i8>,
            quantize_i32_i16_panel: x86::quantize_panel_avx2::<i16>,
            requant_f32: x86::requant_f32_avx2,
        },
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx512 | KernelVariant::Avx512Vnni => SoaOps {
            axpy_f32: x86::axpy_f32_avx512,
            axpy_f32_unfused: x86::axpy_f32_unfused_avx512,
            axpy_i32: x86::axpy_i32_avx512,
            scale_i32_f32: x86::scale_i32_f32_avx512,
            quantize_f32_i8: x86::quantize_f32_i8_avx512,
            quantize_i32_i8_panel: x86::quantize_panel_avx512::<i8>,
            quantize_i32_i16_panel: x86::quantize_panel_avx512::<i16>,
            requant_f32: x86::requant_f32_avx512,
        },
        #[cfg(target_arch = "aarch64")]
        KernelVariant::Neon | KernelVariant::NeonDot => SoaOps {
            axpy_f32: neon::axpy_f32_neon,
            axpy_f32_unfused: neon::axpy_f32_unfused_neon,
            axpy_i32: neon::axpy_i32_neon,
            scale_i32_f32: neon::scale_i32_f32_neon,
            quantize_f32_i8: neon::quantize_f32_i8_neon,
            quantize_i32_i8_panel: neon::quantize_panel_neon::<i8>,
            quantize_i32_i16_panel: neon::quantize_panel_neon::<i16>,
            requant_f32: neon::requant_f32_neon,
        },
        _ => SoaOps {
            axpy_f32: axpy_f32_scalar,
            axpy_f32_unfused: axpy_f32_scalar,
            axpy_i32: axpy_i32_scalar,
            scale_i32_f32: scale_i32_f32_scalar,
            quantize_f32_i8: quantize_f32_i8_scalar,
            quantize_i32_i8_panel: quantize_panel_scalar::<i8>,
            quantize_i32_i16_panel: quantize_panel_scalar::<i16>,
            requant_f32: requant_f32_scalar,
        },
    }
}

fn soa_ops() -> &'static SoaOps {
    static OPS: OnceLock<SoaOps> = OnceLock::new();
    OPS.get_or_init(|| soa_ops_for(active()))
}

/// `dst[i] += coeff · src[i]`. The float Winograd transforms use this; SIMD
/// variants may contract the multiply-add (FMA), so results can differ from
/// the scalar build in the last ulp — callers on bit-pinned paths use
/// [`axpy_f32_unfused`] instead.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn axpy_f32(dst: &mut [f32], coeff: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy_f32: length mismatch");
    (soa_ops().axpy_f32)(dst, coeff, src);
}

/// [`axpy_f32`] with the multiply and add rounded separately on every
/// variant — bit-identical to the scalar loop. The integer Winograd
/// pipeline's float back-transform uses this to stay bit-identical to its
/// per-tile reference.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn axpy_f32_unfused(dst: &mut [f32], coeff: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "axpy_f32_unfused: length mismatch");
    (soa_ops().axpy_f32_unfused)(dst, coeff, src);
}

/// `dst[i] += coeff · src[i]` over `i32` lanes — exact on every variant
/// (integer arithmetic; callers guarantee no overflow, as the scalar loop
/// already required).
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn axpy_i32(dst: &mut [i32], coeff: i32, src: &[i32]) {
    assert_eq!(dst.len(), src.len(), "axpy_i32: length mismatch");
    (soa_ops().axpy_i32)(dst, coeff, src);
}

/// `dst[i] = src[i] as f32 · scale` — the integer pipeline's per-tap `S_BG`
/// rescale. The `i32 → f32` conversion and the multiply round identically
/// to the scalar expression on every variant, so this is bit-identical
/// everywhere.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn scale_i32_f32(dst: &mut [f32], src: &[i32], scale: f32) {
    assert_eq!(dst.len(), src.len(), "scale_i32_f32: length mismatch");
    (soa_ops().scale_i32_f32)(dst, src, scale);
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
/// Winograd-domain bits, written straight into the GEMM panel (`flip` is the
/// `u8 = code + 128` form an unsigned × signed dot-product kernel reads).
/// Only the addressed element of each `K` group is written; its neighbours
/// (the other `K` steps of the group) are left alone. Bit-identical across
/// variants (the `i32 → f32` conversion is exact for the pipeline's bounded
/// sums).
///
/// # Panics
///
/// Panics if `dst` is shorter than the slot needs, `[lo, hi] ⊄ i8` or
/// `slot.g >= slot.group`.
pub fn quantize_i32_i8_panel(
    dst: &mut [i8],
    src: &[i32],
    scale: f32,
    lo: i32,
    hi: i32,
    flip: bool,
    slot: PanelSlot,
) {
    slot.check::<i8>(dst.len(), src.len(), lo, hi);
    (soa_ops().quantize_i32_i8_panel)(dst, src, scale, lo, hi, flip, slot);
}

/// [`quantize_i32_i8_panel`] with an explicit kernel variant (tests/benches).
/// A variant foreign to this build's architecture runs the scalar body.
#[allow(clippy::too_many_arguments)]
pub fn quantize_i32_i8_panel_with(
    variant: KernelVariant,
    dst: &mut [i8],
    src: &[i32],
    scale: f32,
    lo: i32,
    hi: i32,
    flip: bool,
    slot: PanelSlot,
) {
    slot.check::<i8>(dst.len(), src.len(), lo, hi);
    (soa_ops_for(variant).quantize_i32_i8_panel)(dst, src, scale, lo, hi, flip, slot);
}

/// [`quantize_i32_i8_panel`] producing `i16` codes (Winograd-domain
/// bit-widths above 8).
///
/// # Panics
///
/// Panics if `dst` is shorter than the slot needs, `[lo, hi] ⊄ i16` or
/// `slot.g >= slot.group`.
pub fn quantize_i32_i16_panel(
    dst: &mut [i16],
    src: &[i32],
    scale: f32,
    lo: i32,
    hi: i32,
    flip: bool,
    slot: PanelSlot,
) {
    slot.check::<i16>(dst.len(), src.len(), lo, hi);
    (soa_ops().quantize_i32_i16_panel)(dst, src, scale, lo, hi, flip, slot);
}

/// [`quantize_i32_i16_panel`] with an explicit kernel variant
/// (tests/benches).
#[allow(clippy::too_many_arguments)]
pub fn quantize_i32_i16_panel_with(
    variant: KernelVariant,
    dst: &mut [i16],
    src: &[i32],
    scale: f32,
    lo: i32,
    hi: i32,
    flip: bool,
    slot: PanelSlot,
) {
    slot.check::<i16>(dst.len(), src.len(), lo, hi);
    (soa_ops_for(variant).quantize_i32_i16_panel)(dst, src, scale, lo, hi, flip, slot);
}

/// `dst[i] = clamp(round_ties_even(src[i] as f32 / scale), lo, hi) as i16` —
/// [`quantize_i32_i16_panel`] onto a contiguous row.
///
/// # Panics
///
/// Panics if the slices disagree in length or `[lo, hi] ⊄ i16`.
pub fn quantize_i32_i16(dst: &mut [i16], src: &[i32], scale: f32, lo: i32, hi: i32) {
    assert_eq!(dst.len(), src.len(), "quantize_i32_i16: length mismatch");
    quantize_i32_i16_panel(dst, src, scale, lo, hi, false, PanelSlot::CONTIGUOUS);
}

/// [`quantize_i32_i16`] with an explicit kernel variant (tests/benches).
pub fn quantize_i32_i16_with(
    variant: KernelVariant,
    dst: &mut [i16],
    src: &[i32],
    scale: f32,
    lo: i32,
    hi: i32,
) {
    assert_eq!(dst.len(), src.len(), "quantize_i32_i16: length mismatch");
    let slot = PanelSlot::CONTIGUOUS;
    quantize_i32_i16_panel_with(variant, dst, src, scale, lo, hi, false, slot);
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

fn axpy_i32_scalar(dst: &mut [i32], coeff: i32, src: &[i32]) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d += coeff * s;
    }
}

fn scale_i32_f32_scalar(dst: &mut [f32], src: &[i32], scale: f32) {
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        *d = s as f32 * scale;
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
    src: &[i32],
    first: usize,
    scale: f32,
    lo: i32,
    hi: i32,
    flip: bool,
    slot: PanelSlot,
) {
    let mut cur = SlotCursor::new(slot, first);
    for &s in &src[first..] {
        let code = quantize_step(s as f32, scale, 0.0, lo, hi);
        dst[cur.at() + slot.g] = E::from_code(code, flip);
        cur.advance(1);
    }
}

fn quantize_panel_scalar<E: PanelCode>(
    dst: &mut [E],
    src: &[i32],
    scale: f32,
    lo: i32,
    hi: i32,
    flip: bool,
    slot: PanelSlot,
) {
    quantize_panel_tail(dst, src, 0, scale, lo, hi, flip, slot);
}

#[cfg(test)]
fn quantize_i32_i16_scalar(dst: &mut [i16], src: &[i32], scale: f32, lo: i32, hi: i32) {
    quantize_panel_scalar(dst, src, scale, lo, hi, false, PanelSlot::CONTIGUOUS);
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

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{
        axpy_f32_scalar, axpy_i32_scalar, lane_field, quantize_f32_i8_scalar, quantize_panel_tail,
        requant_f32_scalar, scale_i32_f32_scalar, PanelCode, PanelSlot, SlotCursor,
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
        src: &[i32],
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
        src: &[i32],
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
        let sc = _mm256_set1_ps(scale);
        let lov = _mm256_set1_ps(lo as f32);
        let hiv = _mm256_set1_ps(hi as f32);
        let (n, s) = (src.len(), src.as_ptr());
        let mut cur = SlotCursor::new(slot, 0);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_cvtepi32_ps(_mm256_loadu_si256(s.add(i) as *const __m256i));
            let v = _mm256_min_ps(_mm256_max_ps(_mm256_div_ps(v, sc), lov), hiv);
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
        src: &[i32],
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
        src: &[i32],
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
        let sc = _mm512_set1_ps(scale);
        let lov = _mm512_set1_ps(lo as f32);
        let hiv = _mm512_set1_ps(hi as f32);
        let (n, s) = (src.len(), src.as_ptr());
        let mut cur = SlotCursor::new(slot, 0);
        let mut i = 0;
        while i + 16 <= n {
            let v = _mm512_cvtepi32_ps(_mm512_loadu_si512(s.add(i) as *const __m512i));
            let v = _mm512_min_ps(_mm512_max_ps(_mm512_div_ps(v, sc), lov), hiv);
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

    pub fn axpy_f32_unfused_avx2(dst: &mut [f32], coeff: f32, src: &[f32]) {
        // SAFETY: dispatch verified avx2 support.
        unsafe { axpy_f32_unfused_avx2_impl(dst, coeff, src) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn axpy_f32_unfused_avx2_impl(dst: &mut [f32], coeff: f32, src: &[f32]) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let c = _mm256_set1_ps(coeff);
        let mut i = 0;
        while i + 8 <= n {
            // Separate multiply and add: bit-identical to the scalar loop.
            let prod = _mm256_mul_ps(c, _mm256_loadu_ps(s.add(i)));
            _mm256_storeu_ps(d.add(i), _mm256_add_ps(_mm256_loadu_ps(d.add(i)), prod));
            i += 8;
        }
        axpy_f32_scalar(&mut dst[i..], coeff, &src[i..]);
    }

    pub fn axpy_i32_avx2(dst: &mut [i32], coeff: i32, src: &[i32]) {
        // SAFETY: dispatch verified avx2 support.
        unsafe { axpy_i32_avx2_impl(dst, coeff, src) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn axpy_i32_avx2_impl(dst: &mut [i32], coeff: i32, src: &[i32]) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let c = _mm256_set1_epi32(coeff);
        let mut i = 0;
        while i + 8 <= n {
            let prod = _mm256_mullo_epi32(c, _mm256_loadu_si256(s.add(i) as *const __m256i));
            let acc = _mm256_add_epi32(_mm256_loadu_si256(d.add(i) as *const __m256i), prod);
            _mm256_storeu_si256(d.add(i) as *mut __m256i, acc);
            i += 8;
        }
        axpy_i32_scalar(&mut dst[i..], coeff, &src[i..]);
    }

    pub fn scale_i32_f32_avx2(dst: &mut [f32], src: &[i32], scale: f32) {
        // SAFETY: dispatch verified avx2 support.
        unsafe { scale_i32_f32_avx2_impl(dst, src, scale) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn scale_i32_f32_avx2_impl(dst: &mut [f32], src: &[i32], scale: f32) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let c = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_cvtepi32_ps(_mm256_loadu_si256(s.add(i) as *const __m256i));
            _mm256_storeu_ps(d.add(i), _mm256_mul_ps(v, c));
            i += 8;
        }
        scale_i32_f32_scalar(&mut dst[i..], &src[i..], scale);
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

    pub fn axpy_f32_unfused_avx512(dst: &mut [f32], coeff: f32, src: &[f32]) {
        // SAFETY: dispatch verified avx512f support.
        unsafe { axpy_f32_unfused_avx512_impl(dst, coeff, src) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn axpy_f32_unfused_avx512_impl(dst: &mut [f32], coeff: f32, src: &[f32]) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let c = _mm512_set1_ps(coeff);
        let mut i = 0;
        while i + 16 <= n {
            let prod = _mm512_mul_ps(c, _mm512_loadu_ps(s.add(i)));
            _mm512_storeu_ps(d.add(i), _mm512_add_ps(_mm512_loadu_ps(d.add(i)), prod));
            i += 16;
        }
        axpy_f32_scalar(&mut dst[i..], coeff, &src[i..]);
    }

    pub fn axpy_i32_avx512(dst: &mut [i32], coeff: i32, src: &[i32]) {
        // SAFETY: dispatch verified avx512f support.
        unsafe { axpy_i32_avx512_impl(dst, coeff, src) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn axpy_i32_avx512_impl(dst: &mut [i32], coeff: i32, src: &[i32]) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let c = _mm512_set1_epi32(coeff);
        let mut i = 0;
        while i + 16 <= n {
            let prod = _mm512_mullo_epi32(c, _mm512_loadu_si512(s.add(i) as *const __m512i));
            let acc = _mm512_add_epi32(_mm512_loadu_si512(d.add(i) as *const __m512i), prod);
            _mm512_storeu_si512(d.add(i) as *mut __m512i, acc);
            i += 16;
        }
        axpy_i32_scalar(&mut dst[i..], coeff, &src[i..]);
    }

    pub fn scale_i32_f32_avx512(dst: &mut [f32], src: &[i32], scale: f32) {
        // SAFETY: dispatch verified avx512f support.
        unsafe { scale_i32_f32_avx512_impl(dst, src, scale) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn scale_i32_f32_avx512_impl(dst: &mut [f32], src: &[i32], scale: f32) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let c = _mm512_set1_ps(scale);
        let mut i = 0;
        while i + 16 <= n {
            let v = _mm512_cvtepi32_ps(_mm512_loadu_si512(s.add(i) as *const __m512i));
            _mm512_storeu_ps(d.add(i), _mm512_mul_ps(v, c));
            i += 16;
        }
        scale_i32_f32_scalar(&mut dst[i..], &src[i..], scale);
    }
}

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::{
        axpy_f32_scalar, axpy_i32_scalar, lane_field, quantize_f32_i8_scalar, quantize_panel_tail,
        requant_f32_scalar, scale_i32_f32_scalar, PanelCode, PanelSlot, SlotCursor,
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
        src: &[i32],
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
        src: &[i32],
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
        let sc = vdupq_n_f32(scale);
        let lov = vdupq_n_f32(lo as f32);
        let hiv = vdupq_n_f32(hi as f32);
        let (n, s) = (src.len(), src.as_ptr());
        let mut cur = SlotCursor::new(slot, 0);
        let mut i = 0;
        while i + 4 <= n {
            let v = vdivq_f32(vcvtq_f32_s32(vld1q_s32(s.add(i))), sc);
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

    pub fn axpy_f32_unfused_neon(dst: &mut [f32], coeff: f32, src: &[f32]) {
        // SAFETY: dispatch verified NEON support.
        unsafe { axpy_f32_unfused_neon_impl(dst, coeff, src) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn axpy_f32_unfused_neon_impl(dst: &mut [f32], coeff: f32, src: &[f32]) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let c = vdupq_n_f32(coeff);
        let mut i = 0;
        while i + 4 <= n {
            // Separate multiply and add: bit-identical to the scalar loop.
            let prod = vmulq_f32(c, vld1q_f32(s.add(i)));
            vst1q_f32(d.add(i), vaddq_f32(vld1q_f32(d.add(i)), prod));
            i += 4;
        }
        axpy_f32_scalar(&mut dst[i..], coeff, &src[i..]);
    }

    pub fn axpy_i32_neon(dst: &mut [i32], coeff: i32, src: &[i32]) {
        // SAFETY: dispatch verified NEON support.
        unsafe { axpy_i32_neon_impl(dst, coeff, src) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn axpy_i32_neon_impl(dst: &mut [i32], coeff: i32, src: &[i32]) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 4 <= n {
            let acc = vmlaq_n_s32(vld1q_s32(d.add(i)), vld1q_s32(s.add(i)), coeff);
            vst1q_s32(d.add(i), acc);
            i += 4;
        }
        axpy_i32_scalar(&mut dst[i..], coeff, &src[i..]);
    }

    pub fn scale_i32_f32_neon(dst: &mut [f32], src: &[i32], scale: f32) {
        // SAFETY: dispatch verified NEON support.
        unsafe { scale_i32_f32_neon_impl(dst, src, scale) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn scale_i32_f32_neon_impl(dst: &mut [f32], src: &[i32], scale: f32) {
        let n = dst.len();
        let (d, s) = (dst.as_mut_ptr(), src.as_ptr());
        let mut i = 0;
        while i + 4 <= n {
            let v = vcvtq_f32_s32(vld1q_s32(s.add(i)));
            vst1q_f32(d.add(i), vmulq_n_f32(v, scale));
            i += 4;
        }
        scale_i32_f32_scalar(&mut dst[i..], &src[i..], scale);
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

            let mut u1: Vec<f32> = (0..n).map(|i| i as f32 * 0.11).collect();
            let mut u2 = u1.clone();
            axpy_f32_unfused(&mut u1, 1.625, &src_f);
            axpy_f32_scalar(&mut u2, 1.625, &src_f);
            assert_eq!(u1, u2, "axpy_f32_unfused must be bit-identical, n={n}");

            let src_i: Vec<i32> = (0..n).map(|i| i as i32 * 7 - 50).collect();
            let mut i1: Vec<i32> = (0..n).map(|i| i as i32).collect();
            let mut i2 = i1.clone();
            axpy_i32(&mut i1, -3, &src_i);
            axpy_i32_scalar(&mut i2, -3, &src_i);
            assert_eq!(i1, i2, "axpy_i32 must be exact, n={n}");

            let mut f1 = vec![0.0_f32; n];
            let mut f2 = vec![0.0_f32; n];
            scale_i32_f32(&mut f1, &src_i, 0.03125);
            scale_i32_f32_scalar(&mut f2, &src_i, 0.03125);
            assert_eq!(f1, f2, "scale_i32_f32 must be bit-identical, n={n}");
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
            let src_i: Vec<i32> = (0..n).map(|i| (i as i32 * 997 - 3000) % 20000).collect();
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

                let mut q16 = vec![0_i16; n];
                let mut q16_ref = vec![0_i16; n];
                quantize_i32_i16_with(v, &mut q16, &src_i, 37.5, -512, 511);
                quantize_i32_i16_scalar(&mut q16_ref, &src_i, 37.5, -512, 511);
                assert_eq!(q16, q16_ref, "quantize_i32_i16 {} n={n}", v.name());

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
