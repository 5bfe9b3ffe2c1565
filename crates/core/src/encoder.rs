//! The BERT encoder layer and stacked model with the paper's step-wise
//! optimization levels (Fig. 2 and Fig. 13).
//!
//! Five cumulative levels, each adding one paper optimization on top of the
//! previous (Fig. 13's bars):
//!
//! 1. [`OptLevel::Baseline`] — Fig. 2(a): fully padded, unfused add-bias /
//!    LayerNorm / GELU, batched-GEMM MHA with padded softmax.
//! 2. [`OptLevel::LayernormFusion`] — add-bias + residual + LayerNorm in one
//!    kernel (§III.C.1).
//! 3. [`OptLevel::GeluFusion`] — add-bias + GELU fused into the FFN GEMM
//!    epilogue (§III.C.2).
//! 4. [`OptLevel::ZeroPadding`] — Fig. 2(c): prefix-sum, pack, run all
//!    non-MHA modules on valid tokens only, unpack/re-pack fused with the
//!    bias/transpose kernels around batched MHA (§III.D).
//! 5. [`OptLevel::FusedMha`] — the full ByteTransformer: zero padding plus
//!    fused MHA (short-sequence shared-memory kernel or grouped-GEMM kernel),
//!    which never materializes a padded tensor or a global `seq×seq`
//!    intermediate (§III.E).
//!
//! **Every level computes identical activations on valid tokens** (asserted
//! by the cross-level tests); only the cost structure changes. Padded output
//! rows are zero at levels ≥ 4 (the final unpack zero-fills) and unspecified
//! below (the conventional frameworks' padded garbage).

use crate::attention::{batched_attention, fused_attention};
use crate::config::BertConfig;
use crate::weights::{LayerWeights, ModelWeights};
use bt_device::Device;
use bt_gemm::{launch_gemm, Epilogue};
use bt_kernels::activation::add_bias_gelu_unfused;
use bt_kernels::layernorm::{add_bias_residual_layernorm_fused, add_bias_residual_layernorm_unfused};
use bt_kernels::layout::{add_bias_split_qkv_packed, add_bias_unpack_split_qkv, merge_heads_pack};
use bt_tensor::Tensor;
use bt_varlen::{BatchMask, PackingIndex, VarlenError};

/// Cumulative optimization level (each includes all previous ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OptLevel {
    /// Fig. 2(a): padded, unfused.
    Baseline,
    /// + fused add-bias & LayerNorm.
    LayernormFusion,
    /// + add-bias & GELU fused into the FFN GEMM epilogue.
    GeluFusion,
    /// + the zero-padding algorithm (Fig. 2c).
    ZeroPadding,
    /// + fused MHA — the full ByteTransformer.
    FusedMha,
}

impl OptLevel {
    /// All levels in ascending order (the Fig. 13 sweep).
    pub fn all() -> [OptLevel; 5] {
        [
            OptLevel::Baseline,
            OptLevel::LayernormFusion,
            OptLevel::GeluFusion,
            OptLevel::ZeroPadding,
            OptLevel::FusedMha,
        ]
    }

    /// Human-readable label matching the Fig. 13 legend.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::Baseline => "baseline",
            OptLevel::LayernormFusion => "layernorm fusion",
            OptLevel::GeluFusion => "add bias & GELU fusion",
            OptLevel::ZeroPadding => "rm padding",
            OptLevel::FusedMha => "fused MHA",
        }
    }

    fn layernorm_fused(&self) -> bool {
        *self >= OptLevel::LayernormFusion
    }

    fn gelu_fused(&self) -> bool {
        *self >= OptLevel::GeluFusion
    }

    fn zero_padding(&self) -> bool {
        *self >= OptLevel::ZeroPadding
    }

    fn fused_mha(&self) -> bool {
        *self >= OptLevel::FusedMha
    }
}

/// A stacked BERT encoder.
#[derive(Debug, Clone)]
pub struct BertModel {
    /// Hyper-parameters.
    pub config: BertConfig,
    /// Per-layer weights.
    pub weights: ModelWeights,
}

impl BertModel {
    /// Builds a model with `num_layers` deterministic random layers.
    pub fn new_random(config: BertConfig, num_layers: usize, seed: u64) -> Self {
        Self {
            config,
            weights: ModelWeights::new_random(&config, num_layers, seed),
        }
    }

    /// Runs the full encoder stack on a padded `[batch, seq, hidden]` input.
    ///
    /// Returns a padded tensor of the same shape. At levels ≥
    /// [`OptLevel::ZeroPadding`] the padded rows of the output are zero.
    ///
    /// # Errors
    /// Returns [`VarlenError::ShapeMismatch`] if the input does not match
    /// the mask and configuration.
    pub fn forward(
        &self,
        device: &Device,
        input: &Tensor,
        mask: &BatchMask,
        opt: OptLevel,
    ) -> Result<Tensor, VarlenError> {
        let hidden = self.config.hidden();
        let dims = input.dims();
        if dims.len() != 3 || dims[0] != mask.batch() || dims[1] != mask.max_seq_len() || dims[2] != hidden {
            return Err(VarlenError::ShapeMismatch {
                expected: format!("[{}, {}, {hidden}]", mask.batch(), mask.max_seq_len()),
                got: format!("{dims:?}"),
            });
        }

        if opt.zero_padding() {
            // Fig. 2(c): prefix sum once, pack once, stay packed across all
            // layers, unpack once at the end.
            let idx = PackingIndex::from_mask_on(device, mask);
            let mut x = idx.pack(device, input)?;
            for w in &self.weights.layers {
                x = self.layer_forward_packed(device, &x, w, &idx, opt);
            }
            idx.unpack(device, &x)
        } else {
            // Fig. 2(a): padded throughout.
            let mut x = input.clone();
            for w in &self.weights.layers {
                x = self.layer_forward_padded(device, &x, w, mask, opt);
            }
            Ok(x)
        }
    }

    /// One encoder layer on the padded path. `x` is `[batch, seq, hidden]`.
    pub fn layer_forward_padded(
        &self,
        device: &Device,
        x: &Tensor,
        w: &LayerWeights,
        mask: &BatchMask,
        opt: OptLevel,
    ) -> Tensor {
        assert!(!opt.zero_padding(), "padded path serves levels below ZeroPadding");
        let hidden = self.config.hidden();
        let (batch, seq) = (mask.batch(), mask.max_seq_len());
        let rows = batch * seq;
        // A trivial all-full index turns the fused unpack/split kernels into
        // plain padded bias+transpose kernels with identical traffic.
        let full_idx =
            PackingIndex::from_mask(&BatchMask::from_lens(vec![seq; batch], seq).expect("full lengths are valid"));

        // GEMM0: packed QKV position encoding.
        let qkv = launch_gemm(
            device,
            "gemm0.qkv",
            x.as_slice(),
            rows,
            w.qkv_weight.as_slice(),
            hidden,
            3 * hidden,
            Epilogue::None,
        );
        let qkv = Tensor::from_vec(qkv, [rows, 3 * hidden]).expect("shape consistent");
        let (q, k, v) = add_bias_unpack_split_qkv(device, &qkv, &w.qkv_bias, &full_idx, self.config.heads);

        // Attention: batched GEMMs + padded softmax.
        let ctx = batched_attention(
            device,
            &q,
            &k,
            &v,
            mask.seq_lens(),
            self.config.attention_scale(),
            false,
        );
        let ctx = merge_heads_pack(device, &ctx, &full_idx); // full index: plain merge

        self.post_attention(device, x.as_slice(), ctx.into_vec(), rows, w, opt)
            .reshape([batch, seq, hidden])
            .expect("row count unchanged")
    }

    /// One encoder layer on the packed path. `x` is `[valid, hidden]`.
    pub fn layer_forward_packed(
        &self,
        device: &Device,
        x: &Tensor,
        w: &LayerWeights,
        idx: &PackingIndex,
        opt: OptLevel,
    ) -> Tensor {
        assert!(opt.zero_padding(), "packed path serves ZeroPadding and above");
        let hidden = self.config.hidden();
        let rows = idx.valid_words();

        let qkv = launch_gemm(
            device,
            "gemm0.qkv",
            x.as_slice(),
            rows,
            w.qkv_weight.as_slice(),
            hidden,
            3 * hidden,
            Epilogue::None,
        );
        let qkv = Tensor::from_vec(qkv, [rows, 3 * hidden]).expect("shape consistent");

        let ctx = if opt.fused_mha() {
            // Fully packed fused MHA; scale folded into Q at the split.
            let (q, k, v) = add_bias_split_qkv_packed(
                device,
                &qkv,
                &w.qkv_bias,
                self.config.heads,
                self.config.attention_scale(),
            );
            fused_attention(device, &q, &k, &v, idx)
        } else {
            // Unpack (fused with bias+transpose) for batched MHA, then
            // re-pack (fused with the output transpose) — Fig. 2(c).
            let (q, k, v) = add_bias_unpack_split_qkv(device, &qkv, &w.qkv_bias, idx, self.config.heads);
            let ctx_pad = batched_attention(
                device,
                &q,
                &k,
                &v,
                idx.mask().seq_lens(),
                self.config.attention_scale(),
                true,
            );
            merge_heads_pack(device, &ctx_pad, idx)
        };

        self.post_attention(device, x.as_slice(), ctx.into_vec(), rows, w, opt)
    }

    /// Shared tail of both paths: projection, layernorm0, FFN, layernorm1.
    /// `rows` is the token count the kernels iterate over — the whole point
    /// of the zero-padding algorithm is that the packed path passes a
    /// smaller `rows` here.
    fn post_attention(
        &self,
        device: &Device,
        residual0: &[f32],
        ctx: Vec<f32>,
        rows: usize,
        w: &LayerWeights,
        opt: OptLevel,
    ) -> Tensor {
        let hidden = self.config.hidden();
        let inter = self.config.intermediate();
        let eps = self.config.eps;

        // GEMM1: attention output projection.
        let mut attn = launch_gemm(
            device,
            "gemm1.proj",
            &ctx,
            rows,
            w.attn_out_weight.as_slice(),
            hidden,
            hidden,
            Epilogue::None,
        );

        // layernorm0: add bias + residual + LayerNorm (fused at level ≥ 2).
        if opt.layernorm_fused() {
            add_bias_residual_layernorm_fused(
                device,
                "layernorm0",
                &mut attn,
                residual0,
                &w.attn_out_bias,
                &w.ln0_gamma,
                &w.ln0_beta,
                eps,
                rows,
                hidden,
            );
        } else {
            add_bias_residual_layernorm_unfused(
                device,
                "layernorm0",
                &mut attn,
                residual0,
                &w.attn_out_bias,
                &w.ln0_gamma,
                &w.ln0_beta,
                eps,
                rows,
                hidden,
            );
        }

        // GEMM2: FFN up-projection (+ fused bias & GELU at level ≥ 3).
        let mut ffn = launch_gemm(
            device,
            "gemm2.ffn_up",
            &attn,
            rows,
            w.ffn_up_weight.as_slice(),
            hidden,
            inter,
            if opt.gelu_fused() {
                Epilogue::BiasGelu(&w.ffn_up_bias)
            } else {
                Epilogue::None
            },
        );
        if !opt.gelu_fused() {
            add_bias_gelu_unfused(device, "bias_act", &mut ffn, rows, inter, &w.ffn_up_bias);
        }

        // GEMM3: FFN down-projection.
        let mut out = launch_gemm(
            device,
            "gemm3.ffn_down",
            &ffn,
            rows,
            w.ffn_down_weight.as_slice(),
            inter,
            hidden,
            Epilogue::None,
        );
        ffn.clear();

        // layernorm1.
        if opt.layernorm_fused() {
            add_bias_residual_layernorm_fused(
                device,
                "layernorm1",
                &mut out,
                &attn,
                &w.ffn_down_bias,
                &w.ln1_gamma,
                &w.ln1_beta,
                eps,
                rows,
                hidden,
            );
        } else {
            add_bias_residual_layernorm_unfused(
                device,
                "layernorm1",
                &mut out,
                &attn,
                &w.ffn_down_bias,
                &w.ln1_gamma,
                &w.ln1_beta,
                eps,
                rows,
                hidden,
            );
        }
        Tensor::from_vec(out, [rows, hidden]).expect("shape consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_device::CostModel;
    use bt_varlen::workload;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    fn setup(lens: &[usize], max_seq: usize, layers: usize) -> (BertModel, Tensor, BatchMask) {
        let config = BertConfig::tiny();
        let model = BertModel::new_random(config, layers, 42);
        let mask = BatchMask::from_lens(lens.to_vec(), max_seq).unwrap();
        // Zero the padded rows of the input, as a real pipeline would.
        let mut input = Tensor::randn([mask.batch(), max_seq, config.hidden()], 7);
        for (b, &len) in mask.seq_lens().iter().enumerate() {
            for s in len..max_seq {
                for h in 0..config.hidden() {
                    input.set(&[b, s, h], 0.0).unwrap();
                }
            }
        }
        (model, input, mask)
    }

    /// Max abs diff across valid tokens between two padded outputs.
    fn valid_diff(a: &Tensor, b: &Tensor, mask: &BatchMask) -> f32 {
        let hidden = a.dims()[2];
        let mut worst = 0.0f32;
        for (bi, &len) in mask.seq_lens().iter().enumerate() {
            for s in 0..len {
                for h in 0..hidden {
                    let d = (a.at(&[bi, s, h]).unwrap() - b.at(&[bi, s, h]).unwrap()).abs();
                    worst = worst.max(d);
                }
            }
        }
        worst
    }

    #[test]
    fn all_opt_levels_agree_on_valid_tokens() {
        let (model, input, mask) = setup(&[5, 9, 2], 12, 2);
        let dev = device();
        let baseline = model.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
        for opt in OptLevel::all() {
            let out = model.forward(&dev, &input, &mask, opt).unwrap();
            let d = valid_diff(&baseline, &out, &mask);
            assert!(d < 5e-3, "{:?} diverges: {d}", opt);
        }
    }

    #[test]
    fn packed_levels_zero_padded_rows() {
        let (model, input, mask) = setup(&[3, 6], 8, 1);
        let dev = device();
        let out = model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
        for (b, &len) in mask.seq_lens().iter().enumerate() {
            for s in len..8 {
                for h in 0..model.config.hidden() {
                    assert_eq!(out.at(&[b, s, h]).unwrap(), 0.0);
                }
            }
        }
    }

    #[test]
    fn fused_mha_long_path_agrees_too() {
        // max_seq above FUSED_SHORT_MAX_SEQ forces the grouped kernel.
        let (model, input, mask) = setup(&[390, 120], 400, 1);
        let dev = device();
        let a = model.forward(&dev, &input, &mask, OptLevel::ZeroPadding).unwrap();
        let b = model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
        assert!(valid_diff(&a, &b, &mask) < 5e-3);
    }

    #[test]
    fn zero_padding_reduces_gemm_flops() {
        let (model, input, mask) = setup(&[4, 4], 16, 1); // α = 0.25
        let run = |opt| {
            let dev = device();
            model.forward(&dev, &input, &mask, opt).unwrap();
            let gemm_flops: u64 = dev
                .trace()
                .iter()
                .filter(|r| {
                    // Exclude gemm2, whose ZeroPadding spec includes the
                    // fused GELU epilogue flops.
                    r.name.starts_with("gemm0") || r.name.starts_with("gemm1") || r.name.starts_with("gemm3")
                })
                .map(|r| r.cost.flops)
                .sum();
            gemm_flops
        };
        let base = run(OptLevel::Baseline);
        let zp = run(OptLevel::ZeroPadding);
        // α = 0.25 -> non-MHA GEMMs shrink exactly 4×.
        assert_eq!(zp * 4, base);
    }

    #[test]
    fn fused_mha_reduces_attention_flops_quadratically() {
        let (model, input, mask) = setup(&[8, 8], 32, 1); // α = 0.25
        let run = |opt| {
            let dev = device();
            model.forward(&dev, &input, &mask, opt).unwrap();
            dev.trace()
                .iter()
                .filter(|r| r.name.starts_with("attention"))
                .map(|r| r.cost.flops)
                .sum::<u64>()
        };
        let zp = run(OptLevel::ZeroPadding);
        let fused = run(OptLevel::FusedMha);
        // Quadratic saving: α² = 1/16; allow slack for softmax terms.
        assert!(fused * 8 < zp, "fused {fused} vs zero-padding {zp}");
    }

    #[test]
    fn modeled_time_strictly_improves_across_levels() {
        // The Fig. 13 staircase. A zero-launch-overhead roofline isolates
        // the structural effects (fewer bytes / fewer flops) from the
        // launch-count tradeoff, which only pays off at production shapes
        // (that regime is exercised by the fig13 bench in release mode).
        let roofline = bt_device::CostModel {
            launch_overhead: 0.0,
            ..bt_device::CostModel::a100()
        };
        let config = BertConfig {
            heads: 4,
            head_size: 16,
            ffn_scale: 4,
            layers: 1,
            eps: 1e-6,
        };
        let model = BertModel::new_random(config, 1, 3);
        let mask = workload::paper_workload(8, 128, 5);
        let input = Tensor::randn([8, 128, config.hidden()], 11);
        let mut prev = f64::INFINITY;
        for opt in OptLevel::all() {
            let dev = Device::with_model(roofline);
            model.forward(&dev, &input, &mask, opt).unwrap();
            let t = dev.modeled_total();
            assert!(t < prev, "{:?} did not improve: {t} vs {prev}", opt);
            prev = t;
        }
    }

    #[test]
    fn shape_errors_are_typed() {
        let (model, _input, mask) = setup(&[2], 4, 1);
        let dev = device();
        let bad = Tensor::zeros([1, 5, model.config.hidden()]);
        assert!(model.forward(&dev, &bad, &mask, OptLevel::Baseline).is_err());
        let bad2 = Tensor::zeros([2, 4, model.config.hidden()]);
        assert!(model.forward(&dev, &bad2, &mask, OptLevel::Baseline).is_err());
    }

    #[test]
    fn multi_layer_stack_stays_finite() {
        let (model, input, mask) = setup(&[6, 3], 8, 2);
        let dev = device();
        let out = model.forward(&dev, &input, &mask, OptLevel::FusedMha).unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }
}
