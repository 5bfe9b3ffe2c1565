//! Per-layer accounting for the traced runs, measured from outside the
//! program at boundaries that already exist: the `KernelRecord`s a traced
//! `Device` keeps for every launch, and `bt_obs` counter deltas.

use crate::report::Metrics;
use bt_device::Device;
use std::collections::BTreeMap;

/// The GEMM buckets (projections and FFN; attention GEMMs count as attention).
pub const GEMM_BUCKETS: [&str; 4] = ["gemm.qkv", "gemm.proj", "gemm.ffn_up", "gemm.ffn_down"];

/// Maps a kernel name to its bucket. Encoder kernels are named
/// `gemm0..3.*`, `attention.*`, `layernorm{0,1}.*`, `layout.*`, `varlen.*`;
/// the paged decoder's are `paged.*`, mapped onto the same layers.
pub fn bucket_of(name: &str) -> &'static str {
    let starts = |prefixes: &[&str]| prefixes.iter().any(|p| name.starts_with(p));
    if starts(&["gemm0.", "paged.self_qkv", "paged.cross_q", "paged.cross_kv"]) {
        "gemm.qkv"
    } else if starts(&["gemm1.", "paged.self_proj", "paged.cross_proj"]) {
        "gemm.proj"
    } else if starts(&["gemm2.", "paged.ffn_up"]) {
        "gemm.ffn_up"
    } else if starts(&["gemm3.", "paged.ffn_down"]) {
        "gemm.ffn_down"
    } else if starts(&["attention.", "paged.attn.", "paged.cross.", "paged.gather"]) {
        "attention"
    } else if starts(&["layernorm"]) {
        "layernorm"
    } else if starts(&["layout."]) {
        "layout"
    } else if starts(&["varlen."]) {
        "varlen"
    } else {
        "other"
    }
}

/// Totals of one bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Bucket {
    /// Measured kernel wall time, seconds.
    pub wall_s: f64,
    /// Declared FLOPs.
    pub flops: u64,
    /// Declared bytes read plus written.
    pub bytes: u64,
}

/// Kernel totals folded from traced devices.
#[derive(Debug, Default)]
pub struct Kernels {
    buckets: BTreeMap<&'static str, Bucket>,
    /// Kernel launches.
    pub launches: u64,
    /// Modeled A100 seconds (the device's roofline model).
    pub modeled_s: f64,
}

impl Kernels {
    /// Folds in every launch a traced device recorded.
    pub fn add(&mut self, device: &Device) {
        for r in device.trace() {
            let b = self.buckets.entry(bucket_of(&r.name)).or_default();
            b.wall_s += r.wall.as_secs_f64();
            b.flops += r.cost.flops;
            b.bytes += r.cost.bytes();
            self.launches += 1;
            self.modeled_s += r.modeled;
        }
    }

    /// Folds in totals gathered elsewhere.
    pub fn add_totals(&mut self, other: &Kernels) {
        for (name, b) in &other.buckets {
            let mine = self.buckets.entry(name).or_default();
            mine.wall_s += b.wall_s;
            mine.flops += b.flops;
            mine.bytes += b.bytes;
        }
        self.launches += other.launches;
        self.modeled_s += other.modeled_s;
    }

    /// Totals of one bucket (zero if it saw no launch).
    pub fn bucket(&self, name: &str) -> Bucket {
        self.buckets.get(name).copied().unwrap_or_default()
    }

    /// Totals over several buckets.
    pub fn sum(&self, names: &[&str]) -> Bucket {
        names
            .iter()
            .map(|n| self.bucket(n))
            .fold(Bucket::default(), |a, b| Bucket {
                wall_s: a.wall_s + b.wall_s,
                flops: a.flops + b.flops,
                bytes: a.bytes + b.bytes,
            })
    }

    /// Kernel wall time over every bucket, seconds.
    pub fn wall_s(&self) -> f64 {
        self.buckets.values().map(|b| b.wall_s).sum()
    }

    /// The kernel-layer metrics shared by every workload, per `units`
    /// forwards or token steps.
    pub fn report(&self, m: &mut Metrics, units: usize) {
        let per = |s: f64| 1e3 * s / units.max(1) as f64;
        for name in GEMM_BUCKETS {
            m.set(&format!("{name}_ms"), "ms", per(self.bucket(name).wall_s));
        }
        let gemm = self.sum(&GEMM_BUCKETS);
        m.set("gemm.gflops", "GFLOP/s", rate(gemm.flops, gemm.wall_s));
        let attention = self.bucket("attention");
        m.set("attention_ms", "ms", per(attention.wall_s));
        m.set("attention.gflops", "GFLOP/s", rate(attention.flops, attention.wall_s));
        let layernorm = self.bucket("layernorm");
        m.set("layernorm_ms", "ms", per(layernorm.wall_s));
        m.set("layernorm.gb_s", "GB/s", rate(layernorm.bytes, layernorm.wall_s));
        m.set("layout_ms", "ms", per(self.bucket("layout").wall_s));
        m.set("varlen_ms", "ms", per(self.bucket("varlen").wall_s));
    }
}

/// `count / seconds` in units of 1e9 per second; 0 when nothing ran.
fn rate(count: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        count as f64 / seconds / 1e9
    } else {
        0.0
    }
}

/// A reading of every registered `bt_obs` counter.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, u64>);

impl Counters {
    /// Reads the registry now.
    pub fn read() -> Self {
        Counters(bt_obs::counter_values().into_iter().collect())
    }

    /// Per-counter growth since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(k, &v)| (k.clone(), v - before.0.get(k).copied().unwrap_or(0)))
                .collect(),
        )
    }

    /// Adds another delta into this one.
    pub fn add(&mut self, other: &Counters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// One counter (0 if never registered).
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Sum of `pool.<lane>.<event>` over every pool lane.
    pub fn pool(&self, event: &str) -> u64 {
        let suffix = format!(".{event}");
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with("pool.") && k.ends_with(&suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// The counter metrics shared by every workload, per `units` forwards
    /// or token steps.
    pub fn report(&self, m: &mut Metrics, units: usize) {
        let per = |v: u64| v as f64 / units.max(1) as f64;
        m.set("mha.path.short", "count", per(self.get("mha.path.short")));
        m.set("mha.path.long", "count", per(self.get("mha.path.long")));
        m.set(
            "mha.grouped.scheduler_visits",
            "count",
            per(self.get("mha.grouped.scheduler_visits")),
        );
        m.set("pool.steals", "count", per(self.pool("steals")));
        m.set("pool.parks", "count", per(self.pool("parks")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_device::{CostModel, KernelSpec};

    #[test]
    fn encoder_and_decoder_kernels_share_layer_buckets() {
        assert_eq!(bucket_of("gemm0.qkv"), "gemm.qkv");
        assert_eq!(bucket_of("paged.cross_kv"), "gemm.qkv");
        assert_eq!(bucket_of("paged.cross_proj"), "gemm.proj");
        assert_eq!(bucket_of("gemm2.ffn_up"), "gemm.ffn_up");
        assert_eq!(bucket_of("paged.ffn_down"), "gemm.ffn_down");
        assert_eq!(bucket_of("attention.grouped.qk"), "attention");
        assert_eq!(bucket_of("paged.cross.pv"), "attention");
        assert_eq!(bucket_of("paged.gather"), "attention");
        assert_eq!(bucket_of("layernorm1.fused"), "layernorm");
        assert_eq!(bucket_of("layout.add_bias_split_qkv_packed"), "layout");
        assert_eq!(bucket_of("varlen.pack"), "varlen");
        assert_eq!(bucket_of("bias_act.gelu"), "other");
    }

    #[test]
    fn kernels_fold_a_traced_device() {
        let dev = Device::with_model(CostModel::unit());
        dev.launch(KernelSpec::new("gemm0.qkv").flops(100).reads(10), || ());
        dev.launch(KernelSpec::new("attention.fused_short").flops(50).reads(4), || ());
        dev.launch(KernelSpec::new("layernorm0.fused").reads(8).writes(8), || ());
        let mut k = Kernels::default();
        k.add(&dev);
        k.add(&dev);
        assert_eq!(k.launches, 6);
        assert_eq!(k.bucket("gemm.qkv").flops, 200);
        assert_eq!(k.bucket("layernorm").bytes, 32);
        assert_eq!(k.sum(&GEMM_BUCKETS).flops, 200);
        assert!(k.wall_s() >= k.bucket("attention").wall_s);
        assert_eq!(k.bucket("varlen"), Bucket::default());
    }

    #[test]
    fn counter_deltas_sum_pool_lanes() {
        let before = Counters(BTreeMap::from([("pool.0.steals".to_string(), 5), ("x".to_string(), 1)]));
        let after = Counters(BTreeMap::from([
            ("pool.0.steals".to_string(), 7),
            ("pool.1.steals".to_string(), 3),
            ("pool.1.parks".to_string(), 4),
            ("x".to_string(), 1),
        ]));
        let d = after.since(&before);
        assert_eq!(d.pool("steals"), 5);
        assert_eq!(d.pool("parks"), 4);
        assert_eq!(d.get("x"), 0);
        assert_eq!(d.get("missing"), 0);
    }
}
