//! `encoder_long_varlen`: an offline closed loop with one caller feeding
//! freshly drawn batches (4 × max_seq 1024, α = 0.6) to the 12-layer
//! `bert_base` encoder at `OptLevel::FusedMha`.
//!
//! This is where the long grouped-GEMM MHA path and padding removal do
//! most of their work; there is no admission or KV layer.

use crate::gate;
use crate::inputs;
use crate::layers::{Counters, Kernels};
use crate::report::{Metrics, Run};
use crate::setup::{self, Parts};
use crate::stats;
use bt_core::config::BertConfig;
use bt_core::encoder::{BertModel, OptLevel};
use bt_device::{CostModel, Device};
use bt_tensor::Tensor;
use bt_varlen::BatchMask;
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCH: usize = 4;
const MAX_SEQ: usize = 1024;
const ALPHA: f64 = 0.6;
const LAYERS: usize = 12;
const MODEL_SEED: u64 = 1;
/// Forward latency limit behind `slo_share`.
const SLO_MS: f64 = 5000.0;

/// One input batch of the stream.
struct Batch {
    mask: BatchMask,
    input: Tensor,
}

/// Batch `k` of the seed's stream.
fn batch(seed: u64, k: usize) -> Batch {
    let mut rng = inputs::rng(seed, k as u64);
    let lens = inputs::stratified_lengths(BATCH, inputs::paper_uniform_lo(ALPHA, MAX_SEQ), MAX_SEQ, &mut rng);
    let mask = BatchMask::from_lens(lens, MAX_SEQ).expect("stratified lengths are within max_seq");
    let input = bt_frameworks::server::masked_randn(&mask, BertConfig::bert_base().hidden(), rng.next_u64());
    Batch { mask, input }
}

/// Model build, first input batch and a warm-up forward on the long path.
fn set_up(seed: u64) -> ((BertModel, Batch), Parts) {
    let mut parts = Parts::default();
    let model = parts.time_build(|| BertModel::new_random(BertConfig::bert_base(), LAYERS, MODEL_SEED));
    let first = parts.time_inputs(|| batch(seed, 0));
    parts.time_warmup(|| {
        let warm = BatchMask::from_lens(vec![inputs::paper_uniform_lo(ALPHA, MAX_SEQ)], MAX_SEQ)
            .expect("warm-up length is within max_seq");
        let x = bt_frameworks::server::masked_randn(&warm, model.config.hidden(), 0);
        let dev = Device::untraced(CostModel::a100());
        black_box(
            model
                .forward(&dev, &x, &warm, OptLevel::FusedMha)
                .expect("warm-up shapes match"),
        );
    });
    ((model, first), parts)
}

/// Runs one timed forward; returns the output and its wall time.
fn timed_forward(model: &BertModel, dev: &Device, b: &Batch, opt: OptLevel) -> (Tensor, f64) {
    let start = Instant::now();
    let out = model
        .forward(dev, &b.input, &b.mask, opt)
        .expect("batch shapes match the model");
    let wall = start.elapsed().as_secs_f64();
    (black_box(out), wall)
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let ((model, first), setup_s) = setup::median_of(3, || set_up(seed));
    run.metrics.set("setup_s", "s", setup_s);

    let dev = Device::untraced(CostModel::a100());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut walls, mut valid) = (Vec::new(), 0usize);
    let mut reference = None;
    let mut next = Some(first);
    for k in 0.. {
        if k > 0 && start.elapsed() >= budget {
            break;
        }
        let b = next.take().unwrap_or_else(|| batch(seed, k));
        let (out, wall) = timed_forward(&model, &dev, &b, OptLevel::FusedMha);
        walls.push(wall);
        valid += b.mask.valid_words();
        if let Err(e) = gate::check_encoder(&out, None, &b.mask, gate::ENCODER_TOLERANCE) {
            run.failed += 1;
            run.errors.push(e);
        }
        if k == 0 {
            reference = Some((b, out));
        }
    }
    run.attempted = walls.len();

    // Reference gate: the first batch at ZeroPadding must agree with its
    // FusedMha output on valid tokens.
    let (b0, fused0) = reference.expect("at least one forward ran");
    let (zero_padding, _) = timed_forward(&model, &dev, &b0, OptLevel::ZeroPadding);
    match gate::check_encoder(&fused0, Some(&zero_padding), &b0.mask, gate::ENCODER_TOLERANCE) {
        Ok(diff) => run.notes.push(format!(
            "gate: FusedMha vs ZeroPadding max |diff| on valid tokens {diff:.3e} (tolerance {:.0e})",
            gate::ENCODER_TOLERANCE
        )),
        Err(e) => run.errors.push(e),
    }

    let total: f64 = walls.iter().sum();
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    run.metrics
        .set("served_share", "ratio", 1.0 - run.failed as f64 / walls.len() as f64);
    run.metrics.set("tokens_per_s", "tokens/s", valid as f64 / total);
    run.metrics.set("latency_ms_p50", "ms", stats::median(&walls_ms));
    let within = walls_ms.iter().filter(|&&w| w <= SLO_MS).count();
    run.metrics
        .set("slo_share", "ratio", within as f64 / walls.len() as f64);
    run.note_samples("forward wall", "ms", &walls_ms);
    run.notes
        .push(format!("valid tokens {valid} over {} forwards", walls.len()));
    run
}

/// The traced run: per-layer buckets from a fresh traced device per
/// forward, paired with untraced forwards of the same batches for the
/// tracing overhead, then the measured Fig. 13 staircase on the same
/// batch stream.
pub fn run_traced(seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let ((model, _), parts) = set_up(seed);
    parts.report(&mut run.metrics);
    bt_obs::set_enabled(true);

    let half = Duration::from_secs_f64(seconds / 2.0);
    let start = Instant::now();
    let (mut kernels, mut counters) = (Kernels::default(), Counters::default());
    let (mut traced_walls, mut untraced_s) = (Vec::new(), 0.0);
    let (mut valid, mut slots) = (0usize, 0usize);
    for k in 0.. {
        if k > 0 && start.elapsed() >= half {
            break;
        }
        let b = batch(seed, k);
        // Alternate which side runs first so warm caches favour neither.
        for traced in [k % 2 == 0, k % 2 != 0] {
            if traced {
                let before = Counters::read();
                let dev = Device::new();
                let (out, wall) = timed_forward(&model, &dev, &b, OptLevel::FusedMha);
                counters.add(&Counters::read().since(&before));
                kernels.add(&dev);
                traced_walls.push(wall);
                run.gate(gate::check_encoder(&out, None, &b.mask, gate::ENCODER_TOLERANCE).map(drop));
            } else {
                let dev = Device::untraced(CostModel::a100());
                untraced_s += timed_forward(&model, &dev, &b, OptLevel::FusedMha).1;
            }
        }
        valid += b.mask.valid_words();
        slots += b.mask.padded_words();
    }
    let n = traced_walls.len();
    run.attempted = n;
    let forward_s: f64 = traced_walls.iter().sum();
    let layers = encoder_layers(&mut run.metrics, &kernels, &counters, forward_s, n);
    run.gate(layers);
    run.metrics
        .set("padding_share", "ratio", 1.0 - valid as f64 / slots as f64);
    run.metrics
        .set("trace_overhead_share", "ratio", forward_s / untraced_s - 1.0);

    // The staircase: every level on the same batches, measured and modeled.
    let start = Instant::now();
    let mut levels = [(0.0f64, 0.0f64); 5];
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < half {
        let b = batch(seed, rounds);
        for (opt, (wall, modeled)) in OptLevel::all().into_iter().zip(levels.iter_mut()) {
            let dev = Device::new();
            *wall += timed_forward(&model, &dev, &b, opt).1;
            *modeled += dev.modeled_total();
        }
        rounds += 1;
    }
    for (label, (wall, modeled)) in LEVEL_LABELS.iter().zip(levels) {
        let per = 1e3 / rounds as f64;
        run.metrics.set(&format!("encoder.level_ms.{label}"), "ms", wall * per);
        run.metrics
            .set(&format!("encoder.level_modeled_a100_ms.{label}"), "ms", modeled * per);
    }
    run.notes.push(format!(
        "staircase over {rounds} batch(es); traced FusedMha forwards {n}"
    ));
    run
}

/// Metric labels of the five `OptLevel`s, in `OptLevel::all()` order.
const LEVEL_LABELS: [&str; 5] = [
    "baseline",
    "layernorm_fusion",
    "gelu_fusion",
    "zero_padding",
    "fused_mha",
];

/// The encoder-layer metrics for `n` traced forwards totalling `forward_s`.
///
/// # Errors
/// Fails when the kernel buckets sum to more than the measured forward
/// wall: the untracked remainder must not be negative.
pub fn encoder_layers(
    m: &mut Metrics,
    kernels: &Kernels,
    counters: &Counters,
    forward_s: f64,
    n: usize,
) -> Result<(), String> {
    let per = 1.0 / n.max(1) as f64;
    kernels.report(m, n);
    counters.report(m, n);
    m.set("encoder.forward_ms", "ms", 1e3 * forward_s * per);
    m.set("encoder.untracked_ms", "ms", 1e3 * (forward_s - kernels.wall_s()) * per);
    m.set("encoder.launches", "count", kernels.launches as f64 * per);
    m.set("encoder.modeled_a100_ms", "ms", 1e3 * kernels.modeled_s * per);
    if kernels.wall_s() > forward_s {
        return Err(format!(
            "kernel buckets sum to {:.3} s, more than the {forward_s:.3} s of measured forward wall",
            kernels.wall_s()
        ));
    }
    Ok(())
}
