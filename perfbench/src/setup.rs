//! Set-up timing. `setup_s` is the median over several complete set-ups
//! (model build, input generation, warm-up) in one run, so work moved into
//! set-up shows as its own regression.

use crate::report::Metrics;
use crate::stats;
use std::time::Instant;

/// Wall time of each set-up phase, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parts {
    /// Building the model weights.
    pub build_s: f64,
    /// Generating the first inputs.
    pub inputs_s: f64,
    /// Warm-up work before timing starts.
    pub warmup_s: f64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed().as_secs_f64();
    out
}

impl Parts {
    /// Times the model build.
    pub fn time_build<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.build_s, f)
    }

    /// Times input generation.
    pub fn time_inputs<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.inputs_s, f)
    }

    /// Times the warm-up.
    pub fn time_warmup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        timed(&mut self.warmup_s, f)
    }

    /// Total set-up seconds.
    pub fn total(&self) -> f64 {
        self.build_s + self.inputs_s + self.warmup_s
    }

    /// The `setup.*` per-layer metrics.
    pub fn report(&self, m: &mut Metrics) {
        m.set("setup.model_build_s", "s", self.build_s);
        m.set("setup.inputs_s", "s", self.inputs_s);
        m.set("setup.warmup_s", "s", self.warmup_s);
    }
}

/// Runs a complete set-up `reps` times; returns the last result and the
/// median total set-up time.
pub fn median_of<T>(reps: usize, mut set_up: impl FnMut() -> (T, Parts)) -> (T, f64) {
    assert!(reps >= 1, "at least one set-up");
    let mut totals = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous set-up first so peak memory stays one model.
        drop(last.take());
        let (value, parts) = set_up();
        totals.push(parts.total());
        last = Some(value);
    }
    (last.expect("reps >= 1"), stats::median(&totals))
}
