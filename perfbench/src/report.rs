//! The metric catalog and the result every run prints.
//!
//! Every workload reports the same metric names (the catalog below, which
//! `BENCHMARK.json` mirrors); what each name measures on each workload is
//! documented in `perfbench/README.md`. A per-layer metric whose layer a
//! workload never exercises reads 0 there.

use crate::stats;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("served_share", "ratio"),
    ("tokens_per_s", "tokens/s"),
    ("latency_ms_p50", "ms"),
    ("slo_share", "ratio"),
];

/// Per-layer metrics: `(name, unit)`, printed by `--trace 1`.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("gemm.qkv_ms", "ms"),
    ("gemm.proj_ms", "ms"),
    ("gemm.ffn_up_ms", "ms"),
    ("gemm.ffn_down_ms", "ms"),
    ("gemm.gflops", "GFLOP/s"),
    ("attention_ms", "ms"),
    ("attention.gflops", "GFLOP/s"),
    ("mha.path.short", "count"),
    ("mha.path.long", "count"),
    ("mha.grouped.scheduler_visits", "count"),
    ("layernorm_ms", "ms"),
    ("layout_ms", "ms"),
    ("layernorm.gb_s", "GB/s"),
    ("varlen_ms", "ms"),
    ("padding_share", "ratio"),
    ("encoder.forward_ms", "ms"),
    ("encoder.untracked_ms", "ms"),
    ("encoder.launches", "count"),
    ("encoder.modeled_a100_ms", "ms"),
    ("encoder.level_ms.baseline", "ms"),
    ("encoder.level_ms.layernorm_fusion", "ms"),
    ("encoder.level_ms.gelu_fusion", "ms"),
    ("encoder.level_ms.zero_padding", "ms"),
    ("encoder.level_ms.fused_mha", "ms"),
    ("encoder.level_modeled_a100_ms.baseline", "ms"),
    ("encoder.level_modeled_a100_ms.layernorm_fusion", "ms"),
    ("encoder.level_modeled_a100_ms.gelu_fusion", "ms"),
    ("encoder.level_modeled_a100_ms.zero_padding", "ms"),
    ("encoder.level_modeled_a100_ms.fused_mha", "ms"),
    ("pool.steals", "count"),
    ("pool.parks", "count"),
    ("serve.latency_ms_p90", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.batch_requests_mean", "count"),
    ("serve.batch_tokens_mean", "count"),
    ("serve.batch_padding_share", "ratio"),
    ("serve.busy_share", "ratio"),
    ("serve.generator_lag_ms_p90", "ms"),
    ("decode.step_ms_p95", "ms"),
    ("decode.prefill_step_ms_p50", "ms"),
    ("decode.pure_step_ms_p50", "ms"),
    ("decode.sessions_per_step_mean", "count"),
    ("decode.steps", "count"),
    ("decode.loop_overhead_ms", "ms"),
    ("decode.gemm_ms", "ms"),
    ("decode.attention_ms", "ms"),
    ("kv.high_water_blocks", "count"),
    ("kv.block_fill_share", "ratio"),
    ("trace_overhead_share", "ratio"),
    ("setup.model_build_s", "s"),
    ("setup.inputs_s", "s"),
    ("setup.warmup_s", "s"),
];

/// Named metric values in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, &'static str, f64)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value). Names must come from the
    /// catalog, so a typo fails loudly instead of reading as an absent 0.
    ///
    /// # Panics
    /// Panics on a name outside the catalog, a unit that disagrees with it,
    /// or a non-finite value.
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name);
        let (name, want) = known.unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        assert_eq!(unit, *want, "metric {name} has unit {want}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.retain(|(n, ..)| n != name);
        self.0.push((name.to_string(), unit, value));
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|&(_, _, v)| v)
    }

    /// The catalog section `names`, in catalog order; a per-layer metric
    /// the workload did not set reads 0 (its layer did no work).
    ///
    /// # Panics
    /// Panics if an end-to-end metric is missing.
    fn select(
        &self,
        names: &[(&'static str, &'static str)],
        zero_fill: bool,
    ) -> Vec<(&'static str, &'static str, f64)> {
        names
            .iter()
            .map(|&(n, u)| match self.get(n) {
                Some(v) => (n, u, v),
                None if zero_fill => (n, u, 0.0),
                None => panic!("workload did not report end-to-end metric {n}"),
            })
            .collect()
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Metric values (both catalog sections may be present).
    pub metrics: Metrics,
    /// Work units attempted (forwards, requests or decode requests).
    pub attempted: usize,
    /// Attempted units that failed or were shed.
    pub failed: usize,
    /// Correctness-gate failures; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Run {
    /// Records a timing sample set as a note: median, quartiles and count.
    pub fn note_samples(&mut self, what: &str, unit: &str, values: &[f64]) {
        let line = if values.len() >= 2 {
            let [q1, q2, q3] = stats::quartiles(values);
            format!(
                "{what}: median {q2:.3} {unit} (q1 {q1:.3}, q3 {q3:.3}, n {})",
                values.len()
            )
        } else {
            format!("{what}: {:?} {unit} (n {})", values, values.len())
        };
        self.notes.push(line);
    }

    /// Records a gate outcome.
    pub fn gate(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    /// The final JSON line: `correct`, `attempted`, `failed` and the
    /// catalog section the run mode asks for.
    pub fn result_json(&self, traced: bool) -> String {
        let section = if traced {
            self.metrics.select(&PER_LAYER, true)
        } else {
            self.metrics.select(&END_TO_END, false)
        };
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, value)) in section.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }

    /// One `name value unit` line per metric of the section.
    pub fn table(&self, traced: bool) -> Vec<String> {
        let section = if traced {
            self.metrics.select(&PER_LAYER, true)
        } else {
            self.metrics.select(&END_TO_END, false)
        };
        section
            .into_iter()
            .map(|(n, u, v)| format!("{n:<48} {v:>16.6} {u}"))
            .collect()
    }
}

/// Provenance stamped on every result: the shared `RunMeta` header plus
/// the GEMM precision, the seed and the thread layout.
pub fn provenance(workload: &str, seed: u64, traced: bool, generator_threads: usize) -> String {
    let meta = bt_bench::report::RunMeta::collect(&format!("perfbench.{workload}"), "see metrics");
    let mut s = meta.header_json();
    let _ = write!(
        s,
        "  \"gemm_precision\": \"{}\",\n  \"seed\": {seed},\n  \"trace\": {},\n  \"generator_threads\": {generator_threads}\n}}",
        bt_gemm::active_precision().name(),
        u8::from(traced)
    );
    s.lines().map(str::trim).collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_mirrored_in_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let mut run = Run {
            attempted: 3,
            failed: 1,
            ..Run::default()
        };
        for (n, u) in END_TO_END {
            run.metrics.set(n, u, 1.5);
        }
        let json = run.result_json(false);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!json.contains("gemm.qkv_ms"));
        run.errors.push("gate".into());
        assert!(run.result_json(true).contains("\"correct\": false"));
        assert!(run
            .result_json(true)
            .contains("\"gemm.qkv_ms\": {\"value\": 0.0, \"unit\": \"ms\"}"));
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_metric_names_fail_loudly() {
        Metrics::default().set("gemm.qvk_ms", "ms", 1.0);
    }

    #[test]
    #[should_panic(expected = "end-to-end metric")]
    fn missing_end_to_end_metric_fails_loudly() {
        Run::default().result_json(false);
    }
}
