//! `decode_paged_batch`: an offline closed loop of token-step continuous
//! batching. Each loop queues many prompts for a few decode slots and runs
//! `run_decode_loop` over a `PagedDecodeEngine` with a `bert_base`-width
//! decoder; every request arrives at 0 with no deadline, so the schedule
//! depends only on the inputs.
//!
//! Step timings come from [`Timed`], a `DecodeEngine` wrapper that passes
//! the inner engine's `StepResult` through unchanged.

use crate::gate;
use crate::inputs;
use crate::layers::{Counters, Kernels, GEMM_BUCKETS};
use crate::report::Run;
use crate::setup::{self, Parts};
use crate::stats;
use bt_core::config::BertConfig;
use bt_core::decoder::TransformerDecoder;
use bt_core::paged::PagedDecoder;
use bt_device::{CostModel, Device};
use bt_frameworks::decode::{PlannedStep, StepResult};
use bt_frameworks::{run_decode_loop, DecodeConfig, DecodeEngine, DecodeReport, DecodeRequest, PagedDecodeEngine};
use bt_tensor::Tensor;
use bt_varlen::paged::PagedLayout;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Requests queued per loop.
const REQUESTS: usize = 48;
/// Decode slots (most sessions live at once).
const SLOTS: usize = 16;
const LAYERS: usize = 4;
const MODEL_SEED: u64 = 2;
const MAX_PROMPT: usize = 64;
const ALPHA: f64 = 0.6;
/// Tokens generated per request: uniform on `1..=MAX_DECODE`.
const MAX_DECODE: usize = 32;
/// Cross-attention memory rows per session.
const MEM_LEN: usize = 32;
/// KV cache: tokens per block and blocks in the pool (ample: no OOM).
const BLOCK_TOKENS: usize = 16;
const POOL_BLOCKS: usize = 512;
/// Token budget per step: live sessions plus admitted prompt tokens.
const BUDGET_TOKENS: usize = 256;
/// Inter-token gap limit behind `slo_share`.
const SLO_MS: f64 = 250.0;
/// Requests replayed directly on a `PagedDecoder` for the finite gate.
const GATE_REQUESTS: usize = 4;

fn config() -> DecodeConfig {
    DecodeConfig {
        budget_tokens: BUDGET_TOKENS,
        queue_capacity: REQUESTS,
        deadline: f64::INFINITY,
        max_prompt_len: MAX_PROMPT,
        max_sessions: SLOTS,
        chunk_tokens: 0,
    }
}

fn layout() -> PagedLayout {
    PagedLayout::new(BLOCK_TOKENS, POOL_BLOCKS)
}

/// Loop `k`'s requests: stratified prompt and decode lengths, all at 0.
fn requests(seed: u64, k: usize) -> Vec<DecodeRequest> {
    let mut rng = inputs::rng(seed, 1000 + k as u64);
    let prompts = inputs::stratified_lengths(
        REQUESTS,
        inputs::paper_uniform_lo(ALPHA, MAX_PROMPT),
        MAX_PROMPT,
        &mut rng,
    );
    let decodes = inputs::stratified_lengths(REQUESTS, 1, MAX_DECODE, &mut rng);
    prompts
        .into_iter()
        .zip(decodes)
        .enumerate()
        .map(|(id, (prompt_len, decode_tokens))| DecodeRequest {
            id,
            prompt_len,
            decode_tokens,
            arrival: 0.0,
        })
        .collect()
}

/// Seed of loop `k`'s prompt and memory tensors.
fn tensor_seed(seed: u64, k: usize) -> u64 {
    inputs::rng(seed, 2000 + k as u64).next_u64()
}

/// One wrapped `run_step`.
#[derive(Debug, Clone, Copy)]
struct Step {
    start: Instant,
    wall_s: f64,
    prefill: bool,
    sessions: usize,
}

/// A `DecodeEngine` wrapper timing every step and tracking resident KV
/// tokens; the inner `StepResult` passes through unchanged.
struct Timed<E> {
    inner: E,
    steps: Vec<Step>,
    resident: HashMap<usize, usize>,
    /// Σ resident tokens and Σ reserved block slots, over steps.
    fill: (usize, usize),
}

impl<E: DecodeEngine> Timed<E> {
    fn new(inner: E) -> Self {
        Timed {
            inner,
            steps: Vec::new(),
            resident: HashMap::new(),
            fill: (0, 0),
        }
    }
}

impl<E: DecodeEngine> DecodeEngine for Timed<E> {
    fn run_step(&mut self, step: &PlannedStep<'_>) -> StepResult {
        let start = Instant::now();
        let result = self.inner.run_step(step);
        let wall_s = start.elapsed().as_secs_f64();
        self.steps.push(Step {
            start,
            wall_s,
            prefill: !step.prefill.is_empty(),
            sessions: step.decode.len() + step.prefill.len(),
        });
        for c in step.prefill {
            *self.resident.entry(c.id).or_insert(0) += c.chunk;
        }
        for id in step.decode {
            *self.resident.entry(*id).or_insert(0) += 1;
        }
        for id in result.failed_prefill.iter().chain(&result.failed_decode) {
            self.resident.remove(id);
        }
        self.fill.0 += self.resident.values().sum::<usize>();
        self.fill.1 += result.blocks_in_use * BLOCK_TOKENS;
        result
    }

    fn free(&mut self, id: usize) {
        self.resident.remove(&id);
        self.inner.free(id);
    }

    fn high_water_blocks(&self) -> usize {
        self.inner.high_water_blocks()
    }
}

/// One loop call: its report, wrapped steps, wall time and kernel totals.
struct Loop {
    report: DecodeReport,
    steps: Vec<Step>,
    fill: (usize, usize),
    wall_s: f64,
    high_water: usize,
    kernels: Kernels,
}

impl Loop {
    /// Start-to-start gaps between consecutive token steps, ms.
    fn gaps_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.steps
            .windows(2)
            .map(|w| w[1].start.duration_since(w[0].start).as_secs_f64() * 1e3)
    }
}

fn decode_loop(decoder: &TransformerDecoder, reqs: &[DecodeRequest], tensors: u64, device: Device) -> Loop {
    let engine = PagedDecodeEngine::new(decoder, device, layout(), MEM_LEN, tensors);
    let mut timed = Timed::new(engine);
    let start = Instant::now();
    let report = run_decode_loop(reqs, &config(), &mut timed);
    let wall_s = start.elapsed().as_secs_f64();
    let mut kernels = Kernels::default();
    kernels.add(timed.inner.device());
    Loop {
        report,
        high_water: timed.high_water_blocks(),
        steps: timed.steps,
        fill: timed.fill,
        wall_s,
        kernels,
    }
}

fn set_up(seed: u64) -> ((TransformerDecoder, Vec<DecodeRequest>), Parts) {
    let mut parts = Parts::default();
    let decoder = parts.time_build(|| TransformerDecoder::new_random(BertConfig::bert_base(), LAYERS, MODEL_SEED));
    let reqs = parts.time_inputs(|| requests(seed, 0));
    // A fixed warm-up, the same for every seed, so set-up time does not
    // depend on how long the seed's first requests happen to be.
    let warm: Vec<DecodeRequest> = (0..2)
        .map(|id| DecodeRequest {
            id,
            prompt_len: MAX_PROMPT / 2,
            decode_tokens: 4,
            arrival: 0.0,
        })
        .collect();
    parts.time_warmup(|| decode_loop(&decoder, &warm, 0, Device::untraced(CostModel::a100())));
    ((decoder, reqs), parts)
}

/// Replays the first requests directly on a `PagedDecoder` (prefill, then
/// batched token steps) and checks every output row is finite: the engine
/// keeps its outputs private.
fn finite_gate(decoder: &TransformerDecoder, reqs: &[DecodeRequest], tensors: u64) -> Result<(), String> {
    let dev = Device::untraced(CostModel::a100());
    let hidden = decoder.config.hidden();
    let mut paged = PagedDecoder::new(decoder, layout());
    let mut live = Vec::new();
    for r in reqs.iter().take(GATE_REQUESTS) {
        let memory = Tensor::randn([MEM_LEN, hidden], tensors ^ r.id as u64);
        let sid = paged.open_session(&dev, &memory);
        let prompt = Tensor::randn([r.prompt_len, hidden], tensors.wrapping_add(r.id as u64));
        let outs = paged
            .prefill(&dev, sid, &prompt)
            .map_err(|e| format!("decode gate: prefill refused: {e:?}"))?;
        for o in &outs {
            gate::check_finite("decode prefill output", o)?;
        }
        let last = outs.last().expect("prompts are non-empty").clone();
        live.push((sid, r.decode_tokens, last));
    }
    while !live.is_empty() {
        let sids: Vec<_> = live.iter().map(|l| l.0).collect();
        let inputs: Vec<f32> = live.iter().flat_map(|l| l.2.iter().copied()).collect();
        let out = paged.step_batch(&dev, &sids, &inputs);
        for (l, o) in live.iter_mut().zip(out.outputs) {
            let o = o.ok_or("decode gate: a token step was refused a KV append")?;
            gate::check_finite("decode step output", &o)?;
            l.1 -= 1;
            l.2 = o;
        }
        live.retain(|l| l.1 > 0);
    }
    Ok(())
}

/// Ledger gate for one loop; returns `(offered, served)`.
fn account(run: &mut Run, l: &Loop) -> (usize, usize) {
    run.gate(gate::check_decode_ledger(REQUESTS, &l.report));
    let s = l.report.summary();
    (s.offered, s.served)
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let ((decoder, first), setup_s) = setup::median_of(3, || set_up(seed));
    run.metrics.set("setup_s", "s", setup_s);

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut offered, mut served) = (0, 0);
    let (mut gaps_ms, mut loop_rates) = (Vec::new(), Vec::new());
    let mut loops = 0;
    while loops == 0 || start.elapsed() < budget {
        let reqs = if loops == 0 {
            first.clone()
        } else {
            requests(seed, loops)
        };
        let l = decode_loop(
            &decoder,
            &reqs,
            tensor_seed(seed, loops),
            Device::untraced(CostModel::a100()),
        );
        let (o, s) = account(&mut run, &l);
        offered += o;
        served += s;
        loop_rates.push(l.report.summary().decode_tokens as f64 / l.wall_s);
        gaps_ms.extend(l.gaps_ms());
        loops += 1;
    }
    run.gate(finite_gate(&decoder, &first, tensor_seed(seed, 0)));

    run.attempted = offered;
    run.failed = offered - served;
    run.metrics.set("served_share", "ratio", served as f64 / offered as f64);
    run.metrics.set("tokens_per_s", "tokens/s", stats::median(&loop_rates));
    run.metrics.set("latency_ms_p50", "ms", stats::median(&gaps_ms));
    let within = gaps_ms.iter().filter(|&&g| g <= SLO_MS).count();
    run.metrics
        .set("slo_share", "ratio", within as f64 / gaps_ms.len() as f64);
    run.note_samples("inter-token gap", "ms", &gaps_ms);
    run.note_samples("tokens per second of loop wall", "tokens/s", &loop_rates);
    run
}

/// The traced run: each loop's requests run once untraced and once on a
/// fresh traced device, alternating which goes first; kernel buckets and
/// step timings come from the traced loops, the step-gap tail and the
/// tracing overhead from the pairs.
pub fn run_traced(seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let ((decoder, _), parts) = set_up(seed);
    parts.report(&mut run.metrics);
    bt_obs::set_enabled(true);

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut traced, mut counters) = (Vec::new(), Counters::default());
    let (mut untraced_s, mut untraced_gaps) = (0.0, Vec::new());
    while traced.is_empty() || start.elapsed() < budget {
        let k = traced.len();
        let reqs = requests(seed, k);
        for trace in [k % 2 == 0, k % 2 != 0] {
            if trace {
                let before = Counters::read();
                let l = decode_loop(&decoder, &reqs, tensor_seed(seed, k), Device::new());
                counters.add(&Counters::read().since(&before));
                account(&mut run, &l);
                traced.push(l);
            } else {
                let l = decode_loop(
                    &decoder,
                    &reqs,
                    tensor_seed(seed, k),
                    Device::untraced(CostModel::a100()),
                );
                account(&mut run, &l);
                untraced_s += l.wall_s;
                untraced_gaps.extend(l.gaps_ms());
            }
        }
    }
    run.attempted = traced.len() * REQUESTS;

    let mut kernels = Kernels::default();
    for l in &traced {
        kernels.add_totals(&l.kernels);
    }
    let steps: Vec<&Step> = traced.iter().flat_map(|l| &l.steps).collect();
    let n = steps.len();
    let m = &mut run.metrics;
    kernels.report(m, n);
    counters.report(m, n);
    let ms = |pick: bool| -> Vec<f64> {
        steps
            .iter()
            .filter(|s| s.prefill == pick)
            .map(|s| s.wall_s * 1e3)
            .collect()
    };
    m.set("decode.prefill_step_ms_p50", "ms", stats::median(&ms(true)));
    m.set("decode.pure_step_ms_p50", "ms", stats::median(&ms(false)));
    let sessions: Vec<f64> = steps.iter().map(|s| s.sessions as f64).collect();
    m.set("decode.sessions_per_step_mean", "count", stats::mean(&sessions));
    m.set("decode.steps", "count", traced[0].steps.len() as f64);
    let overhead: Vec<f64> = traced
        .iter()
        .map(|l| (l.wall_s - l.steps.iter().map(|s| s.wall_s).sum::<f64>()) * 1e3)
        .collect();
    m.set("decode.loop_overhead_ms", "ms", stats::mean(&overhead));
    m.set(
        "decode.gemm_ms",
        "ms",
        1e3 * kernels.sum(&GEMM_BUCKETS).wall_s / n as f64,
    );
    m.set(
        "decode.attention_ms",
        "ms",
        1e3 * kernels.bucket("attention").wall_s / n as f64,
    );
    m.set(
        "kv.high_water_blocks",
        "count",
        traced.iter().map(|l| l.high_water).max().unwrap_or(0) as f64,
    );
    let (resident, reserved) = traced.iter().fold((0, 0), |(a, b), l| (a + l.fill.0, b + l.fill.1));
    m.set("kv.block_fill_share", "ratio", resident as f64 / reserved as f64);
    let traced_s: f64 = traced.iter().map(|l| l.wall_s).sum();
    m.set("trace_overhead_share", "ratio", traced_s / untraced_s - 1.0);
    match stats::percentile(&untraced_gaps, 95.0) {
        Ok(v) => m.set("decode.step_ms_p95", "ms", v),
        Err(e) => run.errors.push(format!("decode.step_ms_p95: {e}")),
    }
    run
}
