//! Shared encoder-layer pipelines the framework strategies compose.
//!
//! [`padded_layer`] is the conventional-framework layer: padded end to end,
//! with switches for the MHA implementation, LayerNorm fusion, and GELU
//! placement. [`packed_layer_ft`] is FasterTransformer's layer: packed
//! non-MHA path (FT pioneered the "effective transformer" packing) with a
//! TensorRT-style fixed-shape fused MHA up to
//! [`crate::calibration::FT_FUSED_MHA_MAX_SEQ`], unfused batched fallback
//! above. ByteTransformer itself uses `bt_core::encoder` directly.

use bt_core::attention::{batched_attention, flash_attention, naive_attention};
use bt_core::config::BertConfig;
use bt_core::weights::LayerWeights;
use bt_device::Device;
use bt_gemm::{launch_gemm, Epilogue};
use bt_kernels::activation::add_bias_gelu_unfused;
use bt_kernels::layernorm::{add_bias_residual_layernorm_fused, add_bias_residual_layernorm_unfused};
use bt_kernels::layout::{add_bias_unpack_split_qkv, merge_heads_pack};
use bt_tensor::Tensor;
use bt_varlen::{BatchMask, PackingIndex};

/// Which MHA implementation a strategy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MhaStyle {
    /// PyTorch-style unfused chain (nine kernels, fully padded).
    Naive,
    /// cuBLAS batched GEMMs with padded softmax.
    BatchedPadded,
    /// cuBLAS batched GEMMs with zero-padding softmax.
    BatchedZeropad,
    /// TensorRT/FlashAttention-style fixed-shape fused MHA (padded).
    FlashPadded,
}

/// Where the FFN bias + GELU runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeluStyle {
    /// Two separate kernels after the GEMM.
    Unfused,
    /// Fused into the GEMM epilogue (ByteTransformer's §III.C.2).
    Epilogue,
}

/// Per-layer strategy switches.
#[derive(Debug, Clone, Copy)]
pub struct LayerStrategy {
    /// MHA implementation.
    pub mha: MhaStyle,
    /// Fused add-bias + residual + LayerNorm vs the two-kernel pipeline.
    pub layernorm_fused: bool,
    /// GELU placement.
    pub gelu: GeluStyle,
}

/// Post-attention tail shared by the pipelines: projection, layernorm0,
/// FFN (+GELU), layernorm1, under the given strategy switches.
pub(crate) fn post_attention(
    device: &Device,
    config: &BertConfig,
    w: &LayerWeights,
    residual0: &[f32],
    ctx: Vec<f32>,
    rows: usize,
    strat: &LayerStrategy,
) -> Vec<f32> {
    let hidden = config.hidden();
    let inter = config.intermediate();
    let eps = config.eps;

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
    if strat.layernorm_fused {
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

    let fused = strat.gelu == GeluStyle::Epilogue;
    let mut ffn = launch_gemm(
        device,
        "gemm2.ffn_up",
        &attn,
        rows,
        w.ffn_up_weight.as_slice(),
        hidden,
        inter,
        if fused {
            Epilogue::BiasGelu(&w.ffn_up_bias)
        } else {
            Epilogue::None
        },
    );
    if !fused {
        add_bias_gelu_unfused(device, "bias_act", &mut ffn, rows, inter, &w.ffn_up_bias);
    }

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
    if strat.layernorm_fused {
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
    out
}

/// One conventional-framework encoder layer, padded end to end.
/// `x` is `[batch, seq, hidden]`.
pub fn padded_layer(
    device: &Device,
    config: &BertConfig,
    w: &LayerWeights,
    x: &Tensor,
    mask: &BatchMask,
    strat: &LayerStrategy,
) -> Tensor {
    let hidden = config.hidden();
    let (batch, seq) = (mask.batch(), mask.max_seq_len());
    let rows = batch * seq;
    let full_idx =
        PackingIndex::from_mask(&BatchMask::from_lens(vec![seq; batch], seq).expect("full lengths are valid"));

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
    let (q, k, v) = add_bias_unpack_split_qkv(device, &qkv, &w.qkv_bias, &full_idx, config.heads);

    let scale = config.attention_scale();
    let ctx_pad = match strat.mha {
        // Dispatch tax already applies device-wide, so naive gets 0 extra.
        MhaStyle::Naive => naive_attention(device, &q, &k, &v, mask.seq_lens(), scale, 0.0),
        MhaStyle::BatchedPadded => batched_attention(device, &q, &k, &v, mask.seq_lens(), scale, false),
        MhaStyle::BatchedZeropad => batched_attention(device, &q, &k, &v, mask.seq_lens(), scale, true),
        MhaStyle::FlashPadded => flash_attention(device, &q, &k, &v, mask.seq_lens(), scale),
    };
    let ctx = merge_heads_pack(device, &ctx_pad, &full_idx);

    let out = post_attention(device, config, w, x.as_slice(), ctx.into_vec(), rows, strat);
    Tensor::from_vec(out, [batch, seq, hidden]).expect("shape consistent")
}

/// One FasterTransformer encoder layer: packed non-MHA path; fixed-shape
/// fused MHA up to [`crate::calibration::FT_FUSED_MHA_MAX_SEQ`], unfused
/// batched attention (with zero-padding softmax) above. `x` is
/// `[valid, hidden]`.
pub fn packed_layer_ft(
    device: &Device,
    config: &BertConfig,
    w: &LayerWeights,
    x: &Tensor,
    idx: &PackingIndex,
) -> Tensor {
    let hidden = config.hidden();
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
    // FT unpacks around MHA even for its fused kernel: the TRT plugin
    // consumes padded fixed-shape batches.
    let (q, k, v) = add_bias_unpack_split_qkv(device, &qkv, &w.qkv_bias, idx, config.heads);
    let scale = config.attention_scale();
    let ctx_pad = if idx.max_seq_len() <= crate::calibration::FT_FUSED_MHA_MAX_SEQ {
        flash_attention(device, &q, &k, &v, idx.mask().seq_lens(), scale)
    } else {
        batched_attention(device, &q, &k, &v, idx.mask().seq_lens(), scale, true)
    };
    let ctx = merge_heads_pack(device, &ctx_pad, idx);

    let strat = LayerStrategy {
        mha: MhaStyle::FlashPadded, // unused in post_attention
        layernorm_fused: true,      // FT fuses bias+layernorm
        gelu: GeluStyle::Unfused,   // but not the GEMM epilogue
    };
    let out = post_attention(device, config, w, x.as_slice(), ctx.into_vec(), rows, &strat);
    Tensor::from_vec(out, [rows, hidden]).expect("shape consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_core::encoder::{BertModel, OptLevel};
    use bt_device::CostModel;

    fn device() -> Device {
        Device::with_model(CostModel::unit())
    }

    fn setup(lens: &[usize], max_seq: usize) -> (BertModel, Tensor, BatchMask) {
        let config = BertConfig::tiny();
        let model = BertModel::new_random(config, 1, 42);
        let mask = BatchMask::from_lens(lens.to_vec(), max_seq).unwrap();
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

    fn valid_diff(a: &Tensor, b: &Tensor, mask: &BatchMask) -> f32 {
        let hidden = a.dims()[2];
        let mut worst = 0.0f32;
        for (bi, &len) in mask.seq_lens().iter().enumerate() {
            for s in 0..len {
                for h in 0..hidden {
                    worst = worst.max((a.at(&[bi, s, h]).unwrap() - b.at(&[bi, s, h]).unwrap()).abs());
                }
            }
        }
        worst
    }

    #[test]
    fn every_mha_style_matches_the_reference_encoder() {
        let (model, input, mask) = setup(&[5, 9, 2], 12);
        let dev = device();
        let reference = model.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
        let w = &model.weights.layers[0];
        for mha in [
            MhaStyle::Naive,
            MhaStyle::BatchedPadded,
            MhaStyle::BatchedZeropad,
            MhaStyle::FlashPadded,
        ] {
            let strat = LayerStrategy {
                mha,
                layernorm_fused: false,
                gelu: GeluStyle::Unfused,
            };
            let out = padded_layer(&dev, &model.config, w, &input, &mask, &strat);
            let d = valid_diff(&reference, &out, &mask);
            assert!(d < 5e-3, "{mha:?} diverges: {d}");
        }
    }

    #[test]
    fn fusion_switches_do_not_change_numerics() {
        let (model, input, mask) = setup(&[4, 7], 8);
        let dev = device();
        let w = &model.weights.layers[0];
        let base = padded_layer(
            &dev,
            &model.config,
            w,
            &input,
            &mask,
            &LayerStrategy {
                mha: MhaStyle::BatchedPadded,
                layernorm_fused: false,
                gelu: GeluStyle::Unfused,
            },
        );
        let fused = padded_layer(
            &dev,
            &model.config,
            w,
            &input,
            &mask,
            &LayerStrategy {
                mha: MhaStyle::BatchedPadded,
                layernorm_fused: true,
                gelu: GeluStyle::Epilogue,
            },
        );
        assert!(valid_diff(&base, &fused, &mask) < 1e-4);
    }

    #[test]
    fn ft_packed_layer_matches_reference() {
        let (model, input, mask) = setup(&[5, 9, 2], 12);
        let dev = device();
        let reference = model.forward(&dev, &input, &mask, OptLevel::Baseline).unwrap();
        let idx = PackingIndex::from_mask(&mask);
        let packed = idx.pack(&dev, &input).unwrap();
        let out = packed_layer_ft(&dev, &model.config, &model.weights.layers[0], &packed, &idx);
        let out_pad = idx.unpack(&dev, &out).unwrap();
        assert!(valid_diff(&reference, &out_pad, &mask) < 5e-3);
    }
}
