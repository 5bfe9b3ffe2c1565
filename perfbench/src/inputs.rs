//! Seeded input generators. The program under test only ever sees what
//! these produce; the same seed always gives the same inputs.
//!
//! Lengths follow the paper's `PaperUniform { alpha }` distribution, but
//! are drawn *stratified* (Latin-hypercube style): a group of `n` lengths
//! takes one draw from each of `n` equal slices of the distribution, then
//! shuffles. Every single length is still exactly `PaperUniform`, while the
//! realized α of a group stays close to `alpha`, so a run's figures depend
//! on the code rather than on how lucky the seed's batches were.

use bt_tensor::rng::Xoshiro256StarStar;

/// Deterministic generator for one run, derived from `--seed` and a
/// per-stream tag so independent streams never share draws.
pub fn rng(seed: u64, stream: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream)
}

/// Lower bound of `PaperUniform { alpha }` over `[lo, max]`: uniform with
/// mean `alpha · max`.
pub fn paper_uniform_lo(alpha: f64, max: usize) -> usize {
    assert!((0.5..=1.0).contains(&alpha), "alpha must be in [0.5, 1]");
    (((2.0 * alpha - 1.0) * max as f64).ceil() as usize).max(1)
}

/// `n` stratified draws of `u ∈ [0, 1)`, shuffled.
fn stratified_unit(n: usize, rng: &mut Xoshiro256StarStar) -> Vec<f64> {
    let mut u: Vec<f64> = (0..n).map(|i| (i as f64 + rng.next_f64()) / n as f64).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        u.swap(i, j);
    }
    u
}

/// `n` stratified lengths, each uniform on `[lo, max]`.
pub fn stratified_lengths(n: usize, lo: usize, max: usize, rng: &mut Xoshiro256StarStar) -> Vec<usize> {
    assert!(1 <= lo && lo <= max, "need 1 <= lo <= max");
    let span = (max - lo + 1) as f64;
    stratified_unit(n, rng)
        .into_iter()
        .map(|u| (lo + (u * span) as usize).min(max))
        .collect()
}

/// Arrival offsets (seconds from the start) of `n` requests from
/// independent users at `rate` requests per second: exponential gaps,
/// stratified like the lengths, so the schedule's total span stays close
/// to `n / rate`.
pub fn poisson_schedule(n: usize, rate: f64, rng: &mut Xoshiro256StarStar) -> Vec<f64> {
    assert!(rate > 0.0, "rate must be positive");
    let mut t = 0.0;
    stratified_unit(n, rng)
        .into_iter()
        .map(|u| {
            let due = t;
            t += -(1.0 - u).ln() / rate;
            due
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = stratified_lengths(16, 205, 1024, &mut rng(7, 1));
        let b = stratified_lengths(16, 205, 1024, &mut rng(7, 1));
        let c = stratified_lengths(16, 205, 1024, &mut rng(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn stratified_lengths_cover_every_slice() {
        let (lo, max, n) = (205, 1024, 4);
        let lens = stratified_lengths(n, lo, max, &mut rng(3, 0));
        let mut slices: Vec<usize> = lens.iter().map(|&l| (l - lo) * n / (max - lo + 1)).collect();
        slices.sort();
        assert_eq!(slices, vec![0, 1, 2, 3]);
        assert!(lens.iter().all(|&l| (lo..=max).contains(&l)));
    }

    #[test]
    fn paper_uniform_lower_bound_gives_mean_alpha() {
        let lo = paper_uniform_lo(0.6, 1024);
        assert_eq!(lo, 205);
        let mean = (lo + 1024) as f64 / 2.0;
        assert!((mean / 1024.0 - 0.6).abs() < 0.001);
    }

    #[test]
    fn schedule_rate_is_close_to_target() {
        let due = poisson_schedule(200, 8.0, &mut rng(5, 2));
        assert_eq!(due[0], 0.0);
        assert!(due.windows(2).all(|w| w[1] >= w[0]));
        let span = due[199];
        assert!((span - 199.0 / 8.0).abs() < 199.0 / 8.0 * 0.1, "span {span}");
    }
}
