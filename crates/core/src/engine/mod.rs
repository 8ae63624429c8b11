//! The unified convolution execution engine.
//!
//! The paper's accelerator treats kernel selection as a compiler decision:
//! every convolution layer is mapped to im2col + MatMul, Winograd F(2×2, 3×3)
//! or Winograd F(4×4, 3×3), and different layers of one network routinely use
//! different kernels (Table VII). This module gives the *numeric* side of the
//! workspace the same structure the cycle simulator already had:
//!
//! * [`ConvBackend`] — one shared signature over NCHW tensors that every
//!   convolution path implements ([`backends`]): direct, im2col + GEMM,
//!   float Winograd F2/F4 and the integer tap-wise Winograd pipeline;
//! * [`Planner`] — per-layer kernel selection over a [`wino_nets::Network`],
//!   sharing the [`wino_nets::Kernel`] taxonomy and eligibility rules with
//!   `accel_sim` ([`planner`]);
//! * [`NetworkExecutor`] — runs whole layer inventories through the planned
//!   backends with real tensors ([`executor`]).
//!
//! # Adding a backend
//!
//! Implement [`ConvBackend`] for your type (see `backends.rs` for the
//! patterns), report the accelerator [`Kernel`] it realises from
//! [`ConvBackend::kernel`] (or `None` for pure reference paths), and register
//! it with [`Engine::push`]. Dispatch, planning and the executor pick it up
//! without further changes; the `engine_dispatch` integration test will
//! cross-check it against the direct reference automatically if added to the
//! engine there.

pub mod backends;
pub mod executor;
pub mod graph_exec;
pub mod planner;
pub mod running;

pub use backends::{DirectBackend, Im2colGemmBackend, IntWinogradTapwiseBackend, WinogradBackend};
pub use executor::{
    ExecutorOptions, LayerExecution, NetworkExecution, NetworkExecutor, SynthCache, SynthStats,
};
pub use graph_exec::{
    ActivationArena, ArenaStats, GraphExecution, GraphExecutor, GraphRunOptions, NodeExecution,
    PreparedGraph,
};
pub use planner::{
    Activation, EpilogueFusion, EpiloguePlan, ExecutionPlan, FusionClasses, LayerPlan, Planner,
};
pub use running::{CalibrationPolicy, CalibrationState, RunningCalibration};

use crate::epilogue::EpilogueOps;
use wino_nets::Kernel;
use wino_tensor::{ConvParams, Tensor};

/// One convolution path behind the engine's shared contract.
///
/// Inputs are NCHW activations and OIHW weights (square kernels); the output
/// is the NCHW feature map in FP32. Quantized backends consume and produce
/// FP32 at the boundary and quantize internally, which is exactly how the
/// accelerator's int8 datapath presents itself to the network graph.
pub trait ConvBackend: Send + Sync {
    /// Short stable name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// The accelerator kernel this backend realises, or `None` for pure
    /// software reference paths that the planner never selects.
    fn kernel(&self) -> Option<Kernel>;

    /// Whether this backend can execute a convolution with `params`.
    fn supports(&self, params: ConvParams) -> bool;

    /// Runs the convolution.
    ///
    /// # Panics
    ///
    /// Panics if the tensor shapes are inconsistent with `params`; callers
    /// should check [`ConvBackend::supports`] first (the [`Engine`] does).
    fn conv2d(
        &self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
        params: ConvParams,
    ) -> Tensor<f32>;

    /// Runs the convolution with a fused [`EpilogueOps`] tail — bias,
    /// optional residual add and pre-/post-residual ReLU — applied before
    /// the output is returned.
    ///
    /// The default implementation runs [`ConvBackend::conv2d`] (handing it
    /// the bias) and then applies the remaining tail as separate passes via
    /// [`crate::epilogue::apply_epilogue`]; backends with a fused epilogue
    /// stage override this — the Winograd paths fuse the whole tail into
    /// their output transformation, the GEMM convolution applies it to each
    /// finished block of output rows. Both routes compute the same
    /// elementwise expression in the same order, so an override must stay —
    /// and the built-in ones are — bitwise identical to the default.
    ///
    /// # Panics
    ///
    /// Panics if tensor shapes are inconsistent with `params` or the
    /// epilogue operands (residual shape, bias length) disagree with the
    /// output geometry.
    fn conv2d_epilogue(
        &self,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        params: ConvParams,
        ops: &EpilogueOps,
    ) -> Tensor<f32> {
        let mut y = self.conv2d(x, w, ops.bias, params);
        crate::epilogue::apply_epilogue(&mut y, &ops.without_bias());
        y
    }
}

/// A registry of backends with kernel-keyed dispatch.
///
/// Backends are searched in registration order; the first one whose
/// [`ConvBackend::kernel`] matches and which supports the requested geometry
/// wins, so a quantized backend registered before the float one shadows it.
pub struct Engine {
    backends: Vec<Box<dyn ConvBackend>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field(
                "backends",
                &self.backends.iter().map(|b| b.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Engine {
    /// An engine with no backends; populate it with [`Engine::push`].
    pub fn empty() -> Self {
        Self {
            backends: Vec::new(),
        }
    }

    /// The default FP32 engine: direct reference, im2col + GEMM, Winograd F2
    /// and Winograd F4.
    pub fn with_default_backends() -> Self {
        let mut e = Self::empty();
        e.push(Box::new(DirectBackend));
        e.push(Box::new(Im2colGemmBackend));
        e.push(Box::new(WinogradBackend::f2()));
        e.push(Box::new(WinogradBackend::f4()));
        e
    }

    /// An engine whose Winograd kernel of `cfg.tile` (F2 or F4) runs the
    /// integer tap-wise pipeline (the paper's preferred configuration)
    /// instead of FP32; the other tile keeps its float backend.
    pub fn quantized(cfg: crate::int_winograd::WinogradQuantConfig) -> Self {
        let mut e = Self::empty();
        e.push(Box::new(DirectBackend));
        e.push(Box::new(Im2colGemmBackend));
        // Registered before both float Winograd backends so it shadows the
        // float path of whichever kernel it realises.
        e.push(Box::new(IntWinogradTapwiseBackend::new(cfg)));
        e.push(Box::new(WinogradBackend::f2()));
        e.push(Box::new(WinogradBackend::f4()));
        e
    }

    /// Registers a backend (later lookups prefer earlier registrations).
    pub fn push(&mut self, backend: Box<dyn ConvBackend>) {
        self.backends.push(backend);
    }

    /// All registered backends.
    pub fn backends(&self) -> &[Box<dyn ConvBackend>] {
        &self.backends
    }

    /// The first backend realising `kernel` that supports `params`.
    pub fn backend_for(&self, kernel: Kernel, params: ConvParams) -> Option<&dyn ConvBackend> {
        self.backends
            .iter()
            .find(|b| b.kernel() == Some(kernel) && b.supports(params))
            .map(|b| b.as_ref())
    }

    /// Executes a convolution with the backend realising `kernel`, falling
    /// back to the im2col kernel when the requested one cannot handle the
    /// geometry (e.g. a Winograd kernel asked to run a strided layer).
    ///
    /// # Panics
    ///
    /// Panics if not even the fallback kernel is registered.
    pub fn execute(
        &self,
        kernel: Kernel,
        x: &Tensor<f32>,
        w: &Tensor<f32>,
        bias: Option<&Tensor<f32>>,
        params: ConvParams,
    ) -> Tensor<f32> {
        let backend = self
            .backend_for(kernel, params)
            .or_else(|| self.backend_for(Kernel::Im2col, params))
            .expect("engine has no backend able to execute this layer");
        backend.conv2d(x, w, bias, params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_tensor::normal;

    #[test]
    fn default_engine_lists_every_kernel() {
        let e = Engine::with_default_backends();
        let p = ConvParams::same_3x3();
        for k in Kernel::all() {
            assert!(e.backend_for(k, p).is_some(), "missing backend for {k}");
        }
        assert_eq!(e.backends().len(), 4);
    }

    #[test]
    fn strided_request_falls_back_to_im2col() {
        let e = Engine::with_default_backends();
        let p = ConvParams::new(3, 2, 1);
        assert!(e.backend_for(Kernel::WinogradF4, p).is_none());
        let x = normal(&[1, 2, 8, 8], 0.0, 1.0, 1);
        let w = normal(&[3, 2, 3, 3], 0.0, 0.5, 2);
        let y = e.execute(Kernel::WinogradF4, &x, &w, None, p);
        assert_eq!(y.dims(), &[1, 3, 4, 4]);
    }

    #[test]
    fn quantized_engine_shadows_float_f4() {
        let e = Engine::quantized(crate::int_winograd::WinogradQuantConfig::default());
        let b = e
            .backend_for(Kernel::WinogradF4, ConvParams::same_3x3())
            .unwrap();
        assert_eq!(b.name(), "int-winograd-tapwise");
    }
}
