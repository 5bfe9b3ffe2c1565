//! `serve_short_openloop`: independent users sending short requests on a
//! fixed-rate Poisson schedule into the threaded `Server` (token-budget
//! admission), whose executor runs real 12-layer `bert_base` forwards.
//!
//! The generator runs on the calling thread and sleeps until each
//! request's due time. Latency is timed from that due time, so a stalled
//! generator or server charges the wait to every request behind it, and
//! the generator's own lateness is reported and flagged when material.

use crate::encoder::encoder_layers;
use crate::gate;
use crate::inputs;
use crate::layers::{Counters, Kernels};
use crate::report::Run;
use crate::setup::{self, Parts};
use crate::stats;
use bt_core::config::BertConfig;
use bt_core::encoder::{BertModel, OptLevel};
use bt_device::{CostModel, Device};
use bt_frameworks::admission::CutPolicy;
use bt_frameworks::server::{Outcome, RequestOutcome, ServeConfig, Server};
use bt_tensor::Tensor;
use bt_varlen::BatchMask;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered load, requests per second. Fixed and absolute: never scaled to
/// the host, so a faster program shows as lower latency, not more load.
pub const RATE: f64 = 5.0;
const MAX_LEN: usize = 128;
const ALPHA: f64 = 0.6;
const LAYERS: usize = 12;
const MODEL_SEED: u64 = 1;
/// Valid-token budget per batch (`CutPolicy::TokenBudget`).
const BUDGET_TOKENS: usize = 512;
/// Bounded ingress; far above the queue this load builds.
const QUEUE_CAPACITY: usize = 256;
/// Latency limit behind `slo_share`, from each request's due time.
const SLO_MS: f64 = 500.0;
/// Generator lag tail above this share of the latency median flags the run.
const LAG_FLAG_SHARE: f64 = 0.1;
/// Executed batches replayed to measure the tracing overhead.
const REPLAY_BATCHES: usize = 6;

/// The seeded request stream: due offsets (seconds) and lengths.
struct Schedule {
    due: Vec<f64>,
    lens: Vec<usize>,
}

fn schedule(seed: u64, n: usize) -> Schedule {
    let due = inputs::poisson_schedule(n, RATE, &mut inputs::rng(seed, 1));
    let lo = inputs::paper_uniform_lo(ALPHA, MAX_LEN);
    let lens = inputs::stratified_lengths(n, lo, MAX_LEN, &mut inputs::rng(seed, 2));
    Schedule { due, lens }
}

/// What the timing executor saw for one batch.
#[derive(Debug, Clone)]
struct Exec {
    wall_s: f64,
    lens: Vec<usize>,
    slots: usize,
}

/// The model plus the token rows every request's input is cut from.
struct Model {
    bert: BertModel,
    rows: Tensor,
}

impl Model {
    /// Zero-padded `[batch, max_seq, hidden]` input for a cut batch.
    fn input(&self, mask: &BatchMask) -> Tensor {
        let hidden = self.bert.config.hidden();
        let mut x = Tensor::zeros([mask.batch(), mask.max_seq_len(), hidden]);
        for (b, &len) in mask.seq_lens().iter().enumerate() {
            let at = b * mask.max_seq_len() * hidden;
            x.as_mut_slice()[at..at + len * hidden].copy_from_slice(&self.rows.as_slice()[..len * hidden]);
        }
        x
    }

    fn forward(&self, dev: &Device, mask: &BatchMask) -> f64 {
        let x = self.input(mask);
        let start = Instant::now();
        black_box(
            self.bert
                .forward(dev, &x, mask, OptLevel::FusedMha)
                .expect("cut batches match the model"),
        );
        start.elapsed().as_secs_f64()
    }
}

fn set_up(seed: u64, n: usize) -> ((Arc<Model>, Schedule), Parts) {
    let mut parts = Parts::default();
    let bert = parts.time_build(|| BertModel::new_random(BertConfig::bert_base(), LAYERS, MODEL_SEED));
    let (rows, sched) = parts.time_inputs(|| {
        let rows = Tensor::randn([MAX_LEN, bert.config.hidden()], seed ^ 0x5eed);
        (rows, schedule(seed, n))
    });
    let model = Model { bert, rows };
    parts.time_warmup(|| {
        let mask = BatchMask::from_lens(vec![MAX_LEN], MAX_LEN).expect("warm-up length is within max_len");
        model.forward(&Device::untraced(CostModel::a100()), &mask)
    });
    ((Arc::new(model), sched), parts)
}

/// Everything one pass over the schedule produced.
struct Pass {
    outcomes: Vec<RequestOutcome>,
    lag_s: Vec<f64>,
    execs: Vec<Exec>,
    /// From the schedule start to the last completion, seconds.
    span_s: f64,
    kernels: Kernels,
    counters: Counters,
}

/// Sends the whole schedule through a fresh server. With `traced`, every
/// forward runs on a fresh traced device and its launches and counter
/// deltas are folded in.
fn serve(model: &Arc<Model>, sched: &Schedule, traced: bool) -> Pass {
    let config = ServeConfig {
        policy: CutPolicy::TokenBudget {
            budget_tokens: BUDGET_TOKENS,
        },
        queue_capacity: QUEUE_CAPACITY,
        deadline: f64::INFINITY,
        max_len: MAX_LEN,
        chunk_tokens: 0,
    };
    let execs = Arc::new(Mutex::new(Vec::new()));
    let layers = Arc::new(Mutex::new((Kernels::default(), Counters::default())));
    let server = {
        let (model, execs, layers) = (Arc::clone(model), Arc::clone(&execs), Arc::clone(&layers));
        Server::spawn(config, move |mask: &BatchMask| {
            let before = traced.then(Counters::read);
            let dev = if traced {
                Device::new()
            } else {
                Device::untraced(CostModel::a100())
            };
            let wall_s = model.forward(&dev, mask);
            if let Some(before) = before {
                let mut l = layers.lock().expect("layer totals lock poisoned");
                l.1.add(&Counters::read().since(&before));
                l.0.add(&dev);
            }
            execs.lock().expect("exec log lock poisoned").push(Exec {
                wall_s,
                lens: mask.seq_lens().to_vec(),
                slots: mask.padded_words(),
            });
        })
    };

    let handle = server.handle();
    let mut lag_s = Vec::with_capacity(sched.due.len());
    let mut rejected = Vec::new();
    let t0 = Instant::now() + Duration::from_millis(5);
    for (id, (&due_s, &len)) in sched.due.iter().zip(&sched.lens).enumerate() {
        let due = t0 + Duration::from_secs_f64(due_s);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lag_s.push(Instant::now().saturating_duration_since(due).as_secs_f64());
        match handle.try_submit(id, len) {
            Ok(()) => {}
            Err(Some(reason)) => rejected.push(RequestOutcome {
                id,
                len,
                outcome: Outcome::Shed { reason, wait: 0.0 },
            }),
            Err(None) => break, // server gone: the ledger gate reports the missing ids
        }
    }
    drop(handle);
    let (mut outcomes, _batches) = server.finish();
    outcomes.extend(rejected);
    outcomes.sort_by_key(|o| o.id);
    let span_s = outcomes
        .iter()
        .filter_map(|o| match o.outcome {
            Outcome::Served { latency, .. } => Some(sched.due[o.id] + lag_s[o.id] + latency),
            Outcome::Shed { .. } => None,
        })
        .fold(0.0, f64::max);
    let execs = std::mem::take(&mut *execs.lock().expect("exec log lock poisoned"));
    let (kernels, counters) = std::mem::take(&mut *layers.lock().expect("layer totals lock poisoned"));
    Pass {
        outcomes,
        lag_s,
        execs,
        span_s,
        kernels,
        counters,
    }
}

/// Requests in a run of `seconds` at [`RATE`].
fn requests_for(seconds: f64) -> usize {
    ((RATE * seconds).round() as usize).max(1)
}

/// Latency of each served request from its due time, ms: the generator's
/// lag plus the server's latency from submission.
fn latencies_from_due_ms(pass: &Pass) -> Vec<f64> {
    pass.outcomes
        .iter()
        .filter_map(|o| match o.outcome {
            Outcome::Served { latency, .. } => Some((pass.lag_s[o.id] + latency) * 1e3),
            Outcome::Shed { .. } => None,
        })
        .collect()
}

/// Gates the ledger and fills the fields every mode reports.
fn account(run: &mut Run, pass: &Pass, n: usize) -> Vec<f64> {
    run.attempted = n;
    match gate::check_serve_ledger(n, &pass.outcomes) {
        Ok(s) => run.failed = s.shed(),
        Err(e) => {
            run.failed = n;
            run.errors.push(e);
        }
    }
    let latency_ms = latencies_from_due_ms(pass);
    let lag_ms: Vec<f64> = pass.lag_s.iter().map(|l| l * 1e3).collect();
    let p50 = stats::median(&latency_ms);
    if let Some(p) = stats::highest_supported(n) {
        let lag = stats::percentile(&lag_ms, p).expect("supported percentile");
        if lag > LAG_FLAG_SHARE * p50 {
            run.notes.push(format!(
                "FLAGGED: generator lag p{p} {lag:.3} ms is more than {:.0}% of the latency median {p50:.3} ms",
                LAG_FLAG_SHARE * 100.0
            ));
        }
    }
    run.note_samples("latency from due", "ms", &latency_ms);
    run.note_samples("generator lag", "ms", &lag_ms);
    latency_ms
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let n = requests_for(seconds);
    let ((model, sched), setup_s) = setup::median_of(3, || set_up(seed, n));
    run.metrics.set("setup_s", "s", setup_s);
    let pass = serve(&model, &sched, false);
    let latency_ms = account(&mut run, &pass, n);
    let served = latency_ms.len();
    let tokens: usize = pass.execs.iter().flat_map(|e| &e.lens).sum();
    let exec_s: f64 = pass.execs.iter().map(|e| e.wall_s).sum();
    run.metrics.set("served_share", "ratio", served as f64 / n as f64);
    run.metrics.set("tokens_per_s", "tokens/s", tokens as f64 / exec_s);
    run.metrics.set("latency_ms_p50", "ms", stats::median(&latency_ms));
    let within = latency_ms.iter().filter(|&&l| l <= SLO_MS).count();
    run.metrics.set("slo_share", "ratio", within as f64 / n as f64);
    run.notes.push(format!(
        "{n} requests at {RATE} req/s in {} batches over {:.2} s",
        pass.execs.len(),
        pass.span_s
    ));
    run
}

/// The traced run: per-forward kernel buckets and counters from inside
/// the timing executor, serving-layer timings from the ledger, and a
/// replay of the first batches untraced vs traced for the tracing overhead.
pub fn run_traced(seed: u64, seconds: f64) -> Run {
    let mut run = Run::default();
    let n = requests_for(seconds);
    let ((model, sched), parts) = set_up(seed, n);
    parts.report(&mut run.metrics);
    bt_obs::set_enabled(true);
    let pass = serve(&model, &sched, true);
    let latency_ms = account(&mut run, &pass, n);
    let m = &mut run.metrics;

    let forwards = pass.execs.len();
    let exec_ms: Vec<f64> = pass.execs.iter().map(|e| e.wall_s * 1e3).collect();
    let exec_s: f64 = pass.execs.iter().map(|e| e.wall_s).sum();
    let layers = encoder_layers(m, &pass.kernels, &pass.counters, exec_s, forwards);
    let tokens: usize = pass.execs.iter().flat_map(|e| &e.lens).sum();
    let slots: usize = pass.execs.iter().map(|e| e.slots).sum();
    m.set("padding_share", "ratio", 1.0 - tokens as f64 / slots as f64);
    m.set("serve.batch_padding_share", "ratio", 1.0 - tokens as f64 / slots as f64);
    m.set("serve.exec_ms_p50", "ms", stats::median(&exec_ms));
    m.set(
        "serve.batch_requests_mean",
        "count",
        stats::mean(&count(&pass.execs, |e| e.lens.len())),
    );
    m.set(
        "serve.batch_tokens_mean",
        "count",
        stats::mean(&count(&pass.execs, |e| e.lens.iter().sum())),
    );
    m.set("serve.busy_share", "ratio", exec_s / pass.span_s);
    let waits_ms: Vec<f64> = pass
        .outcomes
        .iter()
        .filter_map(|o| match o.outcome {
            Outcome::Served { queue_wait, .. } => Some(queue_wait * 1e3),
            Outcome::Shed { .. } => None,
        })
        .collect();
    let lag_ms: Vec<f64> = pass.lag_s.iter().map(|l| l * 1e3).collect();
    m.set("serve.queue_wait_ms_p50", "ms", stats::median(&waits_ms));
    for (name, values) in [
        ("serve.latency_ms_p90", &latency_ms),
        ("serve.queue_wait_ms_p90", &waits_ms),
        ("serve.generator_lag_ms_p90", &lag_ms),
    ] {
        match stats::percentile(values, 90.0) {
            Ok(v) => m.set(name, "ms", v),
            Err(e) => run.errors.push(format!("{name}: {e}")),
        }
    }

    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    for (i, e) in pass.execs.iter().take(REPLAY_BATCHES).enumerate() {
        let max = e.lens.iter().copied().max().unwrap_or(1);
        let mask = BatchMask::from_lens(e.lens.clone(), max).expect("replayed lengths are valid");
        for traced in [i % 2 == 0, i % 2 != 0] {
            if traced {
                traced_s += model.forward(&Device::new(), &mask);
            } else {
                untraced_s += model.forward(&Device::untraced(CostModel::a100()), &mask);
            }
        }
    }
    run.metrics
        .set("trace_overhead_share", "ratio", traced_s / untraced_s - 1.0);
    run.gate(layers);
    run
}

fn count(execs: &[Exec], f: impl Fn(&Exec) -> usize) -> Vec<f64> {
    execs.iter().map(|e| f(e) as f64).collect()
}
