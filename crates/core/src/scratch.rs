//! Thread-local scratch for the tap-major Winograd pipelines.
//!
//! The tap-major forward passes ([`crate::winograd`], [`crate::int_winograd`])
//! stage every tile of a strip group in a `V[tap][c_in][tile]` layout (the
//! integer path directly in its GEMM kernel's packed-panel order) and run
//! one GEMM per tap into an `M[tap][c_out][tile]` buffer. Those buffers are
//! sized per strip group (bounded by [`GROUP_SCRATCH_BUDGET`]) and are needed
//! again for the very next group and the very next conv node, so they are
//! parked per thread instead of being reallocated: on a single-CPU host the
//! parallel helpers run inline on the caller thread and every conv node of a
//! graph run reuses one warm allocation; on multi-core hosts each scoped
//! worker pays one allocation per `parallel_map` call at most.
//!
//! The fused epilogue (`crate::epilogue::EpilogueOps` — bias, residual add,
//! ReLU, and on the integer path the output requantization) adds **no**
//! scratch: the residual operand is streamed element-by-element from the
//! caller's live activation at scatter time, never gathered into a panel, so
//! [`tap_scratch_bytes`] is the same with or without an epilogue. The one
//! footprint change a fused residual makes is to the *output staging*: the
//! integer path's per-group strip buffers widen from `i8` codes to the `f32`
//! post-epilogue values (they become the final activation, so this is a
//! move of bytes from a dequantize pass into the kernel, not an addition).

use std::cell::RefCell;
use wino_tensor::simd::DEINTERLEAVE_LANES;

/// Soft cap on the bytes of tap-major scratch (`V` plus `M`) per strip group,
/// chosen so both panels stay cache-resident while the per-tap GEMMs sweep
/// them and the GEMM `N` dimension (tiles per group) stays wide enough for
/// full microkernel blocks.
pub(crate) const GROUP_SCRATCH_BUDGET: usize = 2 << 20;

/// Grows `v` to at least `len` elements and returns the `len`-prefix.
fn grown<T: Copy + Default>(v: &mut Vec<T>, len: usize) -> &mut [T] {
    if v.len() < len {
        v.resize(len, T::default());
    }
    &mut v[..len]
}

/// [`grown`], with the returned slice starting on a cache-line boundary: the
/// integer code panel is written and read a whole 64-byte `K` group at a
/// time, and a panel that straddles lines splits every one of those accesses.
fn grown_aligned<T: Copy + Default>(v: &mut Vec<T>, len: usize) -> &mut [T] {
    const LINE: usize = 64;
    let slack = LINE / std::mem::size_of::<T>();
    if v.len() < len + slack {
        v.resize(len + slack, T::default());
    }
    // `align_offset` may decline (`usize::MAX`); alignment is only a speed-up.
    let skip = match v.as_ptr().align_offset(LINE) {
        off if off <= slack => off,
        _ => 0,
    };
    &mut v[skip..skip + len]
}

/// Picks the parked `Vec<Self>` out of a by-type store `S`, so the integer
/// pipeline can be generic over its code type (`i8` / `i16` panels) and its
/// emit type (`i8` / `f32` staging) without reallocating per call.
pub(crate) trait Parked<S>: Copy + Default {
    fn parked(store: &mut S) -> &mut Vec<Self>;
}

/// The integer `V` panel, one vector per Winograd-domain code type.
#[derive(Debug, Default)]
pub(crate) struct CodePanels {
    i8: Vec<i8>,
    i16: Vec<i16>,
}

impl Parked<CodePanels> for i8 {
    fn parked(store: &mut CodePanels) -> &mut Vec<i8> {
        &mut store.i8
    }
}

impl Parked<CodePanels> for i16 {
    fn parked(store: &mut CodePanels) -> &mut Vec<i16> {
        &mut store.i16
    }
}

/// The integer path's staged emit lanes, one vector per output type.
#[derive(Debug, Default)]
pub(crate) struct StageLanes {
    i8: Vec<i8>,
    f32: Vec<f32>,
}

impl Parked<StageLanes> for i8 {
    fn parked(store: &mut StageLanes) -> &mut Vec<i8> {
        &mut store.i8
    }
}

impl Parked<StageLanes> for f32 {
    fn parked(store: &mut StageLanes) -> &mut Vec<f32> {
        &mut store.f32
    }
}

/// The integer-path buffers of one strip group, see
/// [`TapScratch::int_panels`].
pub(crate) struct IntPanels<'a, T, O> {
    /// Requantized-code panel, `t²` per-tap GEMM activation panels (plus one
    /// contiguous code row on channel-laned layers).
    pub v: &'a mut [T],
    /// Per-tap `i32` accumulator panel, `M[tap][c_out][tile]` or (channel
    /// lanes) `M[tap][tile][c_out]`.
    pub m: &'a mut [i32],
    /// The input stage's `i16` lanes, carved up by [`IntStageLens`].
    pub lanes: &'a mut [i16],
    /// The input stage's int8 staging: a zero row, and the `[pixel][c_in]`
    /// planes of a channel-laned layer.
    pub px: &'a mut [i8],
    /// Back-transformed outputs, `[m² rows][tile lanes]` of one output
    /// channel (tile lanes) or of every output channel (channel lanes).
    pub ea: &'a mut [f32],
    /// Staged emit lanes (`[m² rows][tile lanes]`).
    pub stage: &'a mut [O],
}

/// Element counts of the integer input stage's staging buffers for one strip
/// group — the one place both the forward pass and [`tap_scratch_bytes`] size
/// them from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IntStageLens {
    /// Tile-laned: elements per transformed image row, the one-pixel left
    /// border, the pixels and zero padding out to one tile step past the
    /// last [`DEINTERLEAVE_LANES`] block.
    pub row_len: usize,
    /// Elements between consecutive lane rows: the group's tiles plus the
    /// deinterleave's slack (tile lanes), or `c_in` (channel lanes).
    pub lane_stride: usize,
    /// Total `i16` lanes: the `t` transformed rows (tile-laned only), the
    /// `t²` lane rows between the two passes and the `t` rows the row pass
    /// hands the quantizer.
    pub lanes: usize,
    /// int8 staging: the zero row, plus the transposed planes (channel lanes).
    pub px: usize,
}

impl IntStageLens {
    /// `pixels` is the whole input's `n · h · w` (transposed per group on
    /// channel-laned layers, whose few tiles make that the group itself).
    pub fn new(
        lane_channels: bool,
        t: usize,
        c_in: usize,
        pixels: usize,
        w: usize,
        ntiles: usize,
    ) -> Self {
        let m = t - 2;
        if lane_channels {
            Self {
                row_len: 0,
                lane_stride: c_in,
                lanes: (t * t + t) * c_in,
                px: (1 + pixels) * c_in,
            }
        } else {
            let row_len = (w.div_ceil(m).next_multiple_of(DEINTERLEAVE_LANES) + 1) * m;
            let lane_stride = ntiles + DEINTERLEAVE_LANES;
            Self {
                row_len,
                lane_stride,
                lanes: t * row_len + t * t * lane_stride + t * ntiles,
                px: w,
            }
        }
    }
}

/// The reusable tap-major buffers of one thread.
#[derive(Debug, Default)]
pub(crate) struct TapScratch {
    /// Float transformed-input panel `V[tap][c_in][tile]`.
    v_f: Vec<f32>,
    /// Float per-tap GEMM output panel `M[tap][c_out][tile]`.
    m_f: Vec<f32>,
    /// Float transform staging, SoA over tiles (`[t² rows][tile lanes]`).
    aux_a_f: Vec<f32>,
    /// Second float staging buffer (the two-stage congruence ping-pongs).
    aux_b_f: Vec<f32>,
    /// Integer requantized-code panel, in GEMM panel layout.
    v_i: CodePanels,
    /// Integer per-tap accumulator panel `M[tap][c_out][tile]`.
    m_i: Vec<i32>,
    /// The integer input stage's `i16` lanes.
    lanes_i: Vec<i16>,
    /// The integer input stage's int8 staging.
    px_i: Vec<i8>,
    /// Integer-path staged emit lanes.
    stage: StageLanes,
}

impl TapScratch {
    /// The float-path buffers, grown (never shrunk) to the requested element
    /// counts: the `V` panel, the `M` panel and the two SoA staging buffers
    /// (each `aux_len`).
    pub fn float_panels(
        &mut self,
        v_len: usize,
        m_len: usize,
        aux_len: usize,
    ) -> (&mut [f32], &mut [f32], &mut [f32], &mut [f32]) {
        (
            grown(&mut self.v_f, v_len),
            grown(&mut self.m_f, m_len),
            grown(&mut self.aux_a_f, aux_len),
            grown(&mut self.aux_b_f, aux_len),
        )
    }

    /// The integer-path buffers, grown (never shrunk) to the requested
    /// element counts: the code panel of type `T`, the `i32` accumulator
    /// panel, the input staging `stages` sizes (its `i16` lanes start on a
    /// cache line, which keeps every transformed row on its tile-step
    /// alignment), the `f32` outputs and the staged emit lanes of type `O`.
    pub fn int_panels<T: Parked<CodePanels>, O: Parked<StageLanes>>(
        &mut self,
        v_len: usize,
        m_len: usize,
        stages: IntStageLens,
        ea_len: usize,
        stage_len: usize,
    ) -> IntPanels<'_, T, O> {
        IntPanels {
            v: grown_aligned(T::parked(&mut self.v_i), v_len),
            m: grown(&mut self.m_i, m_len),
            lanes: grown_aligned(&mut self.lanes_i, stages.lanes),
            px: grown(&mut self.px_i, stages.px),
            ea: grown(&mut self.aux_a_f, ea_len),
            stage: grown(O::parked(&mut self.stage), stage_len),
        }
    }
}

thread_local! {
    static TAP_SCRATCH: RefCell<TapScratch> = RefCell::new(TapScratch::default());
}

/// Runs `f` with this thread's tap-major scratch.
///
/// Not reentrant: `f` must not call back into a tap-major forward pass (the
/// GEMM kernels it invokes do not).
pub(crate) fn with_tap_scratch<R>(f: impl FnOnce(&mut TapScratch) -> R) -> R {
    TAP_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// How many strips (tile rows) one tap-major work item covers for a layer
/// with `tiles_w` tile columns and the given channel counts, such that the
/// `V` panel (`v_elem` bytes per code) plus the `M` panel (`m_elem` bytes per
/// accumulator) fit [`GROUP_SCRATCH_BUDGET`] (always at least one strip).
pub(crate) fn strip_group_len(
    tiles_w: usize,
    c_in: usize,
    c_out: usize,
    tt: usize,
    v_elem: usize,
    m_elem: usize,
) -> usize {
    let bytes_per_tile = (c_in * v_elem + c_out * m_elem) * tt;
    let max_tiles = (GROUP_SCRATCH_BUDGET / bytes_per_tile.max(1)).max(tiles_w);
    (max_tiles / tiles_w).max(1)
}

/// Bytes per element of the float pipeline's `V` and `M` panels.
pub(crate) const F32_BYTES: usize = std::mem::size_of::<f32>();

/// The peak tap-major scratch bytes a forward pass of the given geometry uses
/// per worker thread, whichever of the float pipeline and the integer
/// pipeline at 8 or at 9–16 Winograd-domain bits is largest (the prepared
/// graph does not say which will run).
///
/// * Float: `V` + `M` panels plus the thread-parked packed GEMM `B` panel
///   (whose `N` dimension is `c_out` when channel-laned). Thin layers that
///   run the channel-laned formulation (single-image tiles below
///   `MIN_TAP_MAJOR_TILES`, `c_out` at least `CHANNEL_LANE_MIN_COUT`) double
///   the float `M` panel — the GEMM's `[tile][co]` product and its SoA
///   transpose coexist.
/// * Integer: the code panel **is** the GEMM's activation operand, already in
///   the active kernel variant's `K`-grouped panel layout (`i8`/`u8` at ≤ 8
///   bits, `i16` above; sized through [`wino_tensor::PanelLayout`], padding
///   included) — the weights are packed once at prepare and nothing is
///   packed per call — plus one `i32` `M` panel (read where the GEMM left it
///   on channel-laned layers too), the input stage's `i16` lanes and int8
///   rows ([`IntStageLens`]), the `f32` output block of one output channel
///   (of every one when channel-laned) and the staged emit lanes.
///
/// This is what `PreparedGraph::scratch_bytes` reports so deployments can
/// size memory for the executor beyond the activation arena.
pub fn tap_scratch_bytes(c_in: usize, c_out: usize, tile_t: usize, h: usize, w: usize) -> usize {
    use wino_tensor::PackedCode;
    let tt = tile_t * tile_t;
    let m = tile_t - 2;
    let tiles_w = w.div_ceil(m);
    let tiles_h = h.div_ceil(m);
    let variant = wino_tensor::simd::active();
    // Mirrors the winograd modules' thin-layer predicate at batch 1 (larger
    // batches only lower the footprint back to the tile-laned shape).
    let lane_channels = crate::winograd::thin_layer_lanes_channels(tiles_h * tiles_w, c_out);
    let group_tiles = |v_elem: usize, m_elem: usize| {
        strip_group_len(tiles_w, c_in, c_out, tt, v_elem, m_elem).min(tiles_h) * tiles_w
    };

    let ntiles = group_tiles(F32_BYTES, F32_BYTES);
    let m_panels = if lane_channels { 2 * c_out } else { c_out };
    let gemm_n = if lane_channels { c_out } else { ntiles };
    let gemm_m = if lane_channels { ntiles } else { c_out };
    let b_panel = wino_tensor::gemm_f32_b_panel_elems(variant, gemm_m, c_in, gemm_n);
    let float_bytes = ((c_in + m_panels) * tt * ntiles + b_panel) * F32_BYTES;

    let int_bytes = |code_bytes: usize, (a_layout, b_layout): (_, wino_tensor::PanelLayout)| {
        let ntiles = group_tiles(code_bytes, std::mem::size_of::<i32>());
        let act_layout = if lane_channels { a_layout } else { b_layout };
        let code_row = if lane_channels { c_in } else { 0 };
        let stages = IntStageLens::new(lane_channels, tile_t, c_in, h * w, w, ntiles);
        let out_blocks = if lane_channels { c_out + 1 } else { 2 };
        (tt * act_layout.elems(c_in, ntiles) + code_row) * code_bytes
            + c_out * tt * ntiles * std::mem::size_of::<i32>()
            + stages.lanes * std::mem::size_of::<i16>()
            + stages.px
            + out_blocks * m * m * ntiles * F32_BYTES
    };
    float_bytes
        .max(int_bytes(1, i8::layouts(variant)))
        .max(int_bytes(2, i16::layouts(variant)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_len_respects_budget_and_floor() {
        // Tiny layer: whole image fits the budget in one group.
        assert!(strip_group_len(2, 4, 4, 36, 4, 4) >= 1);
        // Huge channels: the floor of one strip still holds.
        assert_eq!(strip_group_len(64, 4096, 4096, 36, 4, 4), 1);
        // ResNet-34 layer2 (28×28, 128→128, F4): a group of several strips
        // stays under the budget.
        let g = strip_group_len(7, 128, 128, 36, 4, 4);
        assert!(g >= 2, "expected multi-strip groups, got {g}");
        assert!((128 + 128) * 36 * g * 7 * 4 <= GROUP_SCRATCH_BUDGET);
    }

    #[test]
    fn narrow_codes_widen_the_group() {
        // ResNet-34 layer1 (56×56, 64→64, F4): sized as f32 the 14 strips
        // split 8 + 6; with 1-byte codes 13 fit the same budget.
        let float = strip_group_len(14, 64, 64, 36, 4, 4);
        let int8 = strip_group_len(14, 64, 64, 36, 1, 4);
        assert_eq!((float, int8), (8, 13));
        assert!((64 + 64 * 4) * 36 * int8 * 14 <= GROUP_SCRATCH_BUDGET);
    }

    #[test]
    fn scratch_bytes_are_positive_and_budget_bounded() {
        let b = tap_scratch_bytes(128, 128, 6, 28, 28);
        assert!(b > 0);
        // One tile row can exceed the soft budget only on degenerate
        // geometries; this one must respect it.
        assert!(b <= GROUP_SCRATCH_BUDGET, "{b}");
    }

    #[test]
    fn panels_grow_and_are_reused() {
        let mut s = TapScratch::default();
        {
            let (v, m, a, b) = s.float_panels(16, 8, 4);
            assert_eq!((v.len(), m.len(), a.len(), b.len()), (16, 8, 4, 4));
            v[0] = 1.0;
        }
        let cap = s.v_f.capacity();
        let (v, _, _, _) = s.float_panels(8, 4, 2);
        assert_eq!(v.len(), 8);
        assert_eq!(s.v_f.capacity(), cap, "shrink must not reallocate");
        // ResNet-34 layer1 (56×56, 64→64, F4), a 13-strip group: six
        // transformed rows out to the 17th tile step, 36 lane rows with the
        // deinterleave's slack, six quantizer rows.
        let stages = IntStageLens::new(false, 6, 64, 56 * 56, 56, 182);
        assert_eq!((stages.row_len, stages.lane_stride), (68, 198));
        assert_eq!(stages.lanes, 6 * 68 + 36 * 198 + 6 * 182);
        assert_eq!(stages.px, 56);
        let p = s.int_panels::<i8, f32>(10, 10, stages, 7, 3);
        assert_eq!((p.v.len(), p.m.len(), p.stage.len()), (10, 10, 3));
        assert_eq!(
            (p.lanes.len(), p.px.len(), p.ea.len()),
            (stages.lanes, stages.px, 7)
        );
        assert_eq!(p.lanes.as_ptr() as usize % 8, 0, "rows off the tile step");
        // The 512×512×7 layer lanes over channels: 4 tiles, 49 pixels.
        let thin = IntStageLens::new(true, 6, 512, 49, 7, 4);
        assert_eq!((thin.lane_stride, thin.lanes), (512, 42 * 512));
        assert_eq!(thin.px, 50 * 512);
    }
}
