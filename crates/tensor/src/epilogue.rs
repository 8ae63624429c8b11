//! Run-time operands of a fused convolution epilogue.
//!
//! The paper's accelerator never materializes pre-activation outputs: bias,
//! requantization, residual sums and the activation are applied in the
//! output datapath as results leave the GEMM array (Section IV-A).
//! [`EpilogueOps`] is the software form of that datapath stage: the set of
//! elementwise operations a convolution kernel applies to each output value
//! *before* the single store. The prepared GEMM convolution
//! ([`crate::im2col::PreparedGemmConv`]) runs it on every finished block of
//! output rows while the block is cache-hot; the Winograd kernels of
//! `wino_core` fuse it in-register; [`apply_epilogue`] is the separate-pass
//! reference all of them are bitwise-pinned against.
//!
//! The element-wise contract, applied in this order:
//!
//! 1. `v += bias[c]` (per output channel),
//! 2. `v = max(v, 0)` if `pre_add_relu` (Darknet-style `add(x, relu(conv))`
//!    tails, where the activation precedes the residual sum),
//! 3. `v += residual[i]` (same-shaped tensor, the skip connection),
//! 4. `v = max(v, 0)` if `relu` (ResNet-style `relu(add(conv, x))` tails, or
//!    a plain `conv → relu` pair when no residual is fused).

use crate::tensor::Tensor;

/// The elementwise tail fused into one convolution's output epilogue.
///
/// All operands borrow from the caller: the residual is a live activation
/// the graph executor resolves from its arena, the bias a prepared weight.
/// [`EpilogueOps::none`] is the identity (a bare convolution).
#[derive(Debug, Clone, Copy, Default)]
pub struct EpilogueOps<'a> {
    /// Per-output-channel bias, added first.
    pub bias: Option<&'a Tensor<f32>>,
    /// Same-shaped residual operand added after (pre-)activation.
    pub residual: Option<&'a Tensor<f32>>,
    /// ReLU applied before the residual sum (`add(x, relu(conv))` tails).
    pub pre_add_relu: bool,
    /// ReLU applied after the residual sum (or directly after bias when no
    /// residual is fused).
    pub relu: bool,
}

impl<'a> EpilogueOps<'a> {
    /// The identity epilogue: no bias, no residual, no activation.
    pub fn none() -> Self {
        Self::default()
    }

    /// Bias and a trailing ReLU only — the PR 4 `conv → relu` fusion shape.
    pub fn bias_relu(bias: Option<&'a Tensor<f32>>, relu: bool) -> Self {
        Self {
            bias,
            residual: None,
            pre_add_relu: false,
            relu,
        }
    }

    /// Whether this epilogue does anything at all.
    pub fn is_identity(&self) -> bool {
        self.bias.is_none() && self.residual.is_none() && !self.pre_add_relu && !self.relu
    }

    /// The same epilogue without the bias (for backends whose convolution
    /// already applied it internally).
    pub fn without_bias(&self) -> EpilogueOps<'a> {
        EpilogueOps {
            bias: None,
            ..*self
        }
    }

    /// Applies the tail to `row`, a run of output values of channel `co`
    /// starting at flat NCHW offset `at` — the one definition of the
    /// elementwise expression. Each step is its own pass so an absent step
    /// leaves the bits alone (`-0.0 + 0.0` would not).
    pub(crate) fn apply_row(&self, row: &mut [f32], co: usize, at: usize) {
        if let Some(b) = self.bias {
            let bv = b.as_slice()[co];
            for v in row.iter_mut() {
                *v += bv;
            }
        }
        if self.pre_add_relu {
            for v in row.iter_mut() {
                *v = v.max(0.0);
            }
        }
        if let Some(r) = self.residual {
            let res = &r.as_slice()[at..at + row.len()];
            for (d, &s) in row.iter_mut().zip(res) {
                *d += s;
            }
        }
        if self.relu {
            for v in row.iter_mut() {
                *v = v.max(0.0);
            }
        }
    }

    /// Checks the operands against an NCHW output of `dims`.
    ///
    /// # Panics
    ///
    /// Panics if the bias length differs from the channel count or the
    /// residual shape from `dims`.
    pub(crate) fn check(&self, dims: &[usize]) {
        if let Some(b) = self.bias {
            assert_eq!(b.len(), dims[1], "epilogue: bias length mismatch");
        }
        if let Some(r) = self.residual {
            assert_eq!(r.dims(), dims, "epilogue: residual shape mismatch");
        }
    }
}

/// Broadcasts a per-output-channel bias over an NCHW feature map.
///
/// # Panics
///
/// Panics if the bias length differs from the channel count.
pub fn add_bias(y: &mut Tensor<f32>, bias: &Tensor<f32>) {
    apply_epilogue(y, &EpilogueOps::bias_relu(Some(bias), false));
}

/// Applies the full epilogue as a separate pass over `y` — the reference
/// implementation every fused kernel is equivalence-tested against, and the
/// fallback for backends without a fused epilogue.
///
/// # Panics
///
/// Panics if the residual shape or bias length disagrees with `y`.
pub fn apply_epilogue(y: &mut Tensor<f32>, ops: &EpilogueOps) {
    ops.check(y.dims());
    let c_out = y.dims()[1];
    let hw = y.dims()[2] * y.dims()[3];
    if hw == 0 {
        return;
    }
    for (plane, row) in y.as_mut_slice().chunks_exact_mut(hw).enumerate() {
        ops.apply_row(row, plane % c_out, plane * hw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::normal;

    #[test]
    fn identity_epilogue_is_a_no_op() {
        let mut y = normal(&[1, 2, 3, 3], 0.0, 1.0, 1);
        let orig = y.clone();
        apply_epilogue(&mut y, &EpilogueOps::none());
        assert_eq!(y, orig);
        assert!(EpilogueOps::none().is_identity());
    }

    #[test]
    fn full_epilogue_applies_in_documented_order() {
        // bias → pre-add ReLU → residual → ReLU on a hand-checked value.
        let mut y = Tensor::from_vec(vec![-2.0_f32], &[1, 1, 1, 1]).unwrap();
        let bias = Tensor::from_vec(vec![1.0_f32], &[1]).unwrap();
        let res = Tensor::from_vec(vec![-0.5_f32], &[1, 1, 1, 1]).unwrap();
        let ops = EpilogueOps {
            bias: Some(&bias),
            residual: Some(&res),
            pre_add_relu: true,
            relu: true,
        };
        apply_epilogue(&mut y, &ops);
        // (-2 + 1) = -1 → max(0) = 0 → + (-0.5) = -0.5 → max(0) = 0.
        assert_eq!(y.as_slice(), &[0.0]);
    }

    #[test]
    fn residual_without_relu_keeps_negatives() {
        let mut y = Tensor::from_vec(vec![1.0_f32, -1.0], &[1, 1, 1, 2]).unwrap();
        let res = Tensor::from_vec(vec![-3.0_f32, 0.5], &[1, 1, 1, 2]).unwrap();
        let ops = EpilogueOps {
            residual: Some(&res),
            ..EpilogueOps::none()
        };
        apply_epilogue(&mut y, &ops);
        assert_eq!(y.as_slice(), &[-2.0, -0.5]);
    }

    #[test]
    fn bias_follows_the_channel_across_a_batch() {
        let mut y = Tensor::<f32>::zeros(&[2, 2, 1, 2]);
        let bias = Tensor::from_vec(vec![1.0_f32, -1.0], &[2]).unwrap();
        add_bias(&mut y, &bias);
        assert_eq!(y.as_slice(), &[1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]);
    }

    #[test]
    fn without_bias_drops_only_the_bias() {
        let bias = Tensor::from_vec(vec![1.0_f32], &[1]).unwrap();
        let ops = EpilogueOps {
            bias: Some(&bias),
            relu: true,
            ..EpilogueOps::none()
        };
        let tail = ops.without_bias();
        assert!(tail.bias.is_none());
        assert!(tail.relu);
    }
}
