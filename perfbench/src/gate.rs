//! Correctness gates. Each runs outside the timed region; any failure
//! marks the whole run incorrect and makes the command exit non-zero.

use bt_frameworks::server::{Outcome, RequestOutcome, ServeReport, ServeSummary};
use bt_frameworks::DecodeReport;
use bt_tensor::Tensor;
use bt_varlen::BatchMask;

/// Largest |FusedMha − ZeroPadding| allowed on valid tokens of the 12-layer
/// encoder. The two levels compute the same function with a different
/// attention reduction order; at 4 × 1024 the measured difference is about
/// 6e-6 on an AVX-512 host, so 1e-3 leaves room for other ISA tiers while
/// still catching a wrong mask or a dropped token.
pub const ENCODER_TOLERANCE: f32 = 1e-3;

/// Every value is finite.
pub fn check_finite(what: &str, values: &[f32]) -> Result<(), String> {
    match values.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(format!("{what}: non-finite value {} at flat index {i}", values[i])),
    }
}

/// Checks a packed-level encoder output `[batch, max_seq, hidden]`: all
/// finite, padded rows exactly zero, and — given a reference output of the
/// same batch — valid rows within `tol` of it. Returns the largest valid-row
/// difference seen (0 without a reference).
pub fn check_encoder(out: &Tensor, reference: Option<&Tensor>, mask: &BatchMask, tol: f32) -> Result<f32, String> {
    check_finite("encoder output", out.as_slice())?;
    let (seq, hidden) = (mask.max_seq_len(), out.dims()[2]);
    fn row(t: &Tensor, at: usize, hidden: usize) -> &[f32] {
        &t.as_slice()[at * hidden..(at + 1) * hidden]
    }
    let mut worst = 0.0f32;
    for (b, &len) in mask.seq_lens().iter().enumerate() {
        for s in len..seq {
            if row(out, b * seq + s, hidden).iter().any(|&v| v != 0.0) {
                return Err(format!(
                    "encoder output: padded row (batch {b}, position {s}) is not zero"
                ));
            }
        }
        if let Some(reference) = reference {
            for s in 0..len {
                for (x, y) in row(out, b * seq + s, hidden)
                    .iter()
                    .zip(row(reference, b * seq + s, hidden))
                {
                    worst = worst.max((x - y).abs());
                }
            }
        }
    }
    if worst > tol {
        return Err(format!(
            "encoder output differs from the reference level by {worst} > {tol}"
        ));
    }
    Ok(worst)
}

/// The serving ledger: every one of `offered` request ids has exactly one
/// outcome — served, shed by the server, or rejected by the producer — and
/// `offered == served + shed`.
pub fn check_serve_ledger(offered: usize, outcomes: &[RequestOutcome]) -> Result<ServeSummary, String> {
    let mut seen = vec![0usize; offered];
    for o in outcomes {
        match seen.get_mut(o.id) {
            Some(n) => *n += 1,
            None => return Err(format!("serve ledger: unknown request id {}", o.id)),
        }
    }
    if let Some(id) = seen.iter().position(|&n| n != 1) {
        return Err(format!("serve ledger: request {id} has {} outcomes", seen[id]));
    }
    let summary = ServeReport {
        outcomes: outcomes.to_vec(),
        batches: 0,
        makespan: 0.0,
    }
    .summary();
    if summary.offered != offered || !summary.accounting_is_exact() {
        return Err(format!(
            "serve ledger: offered {offered} != served {} + shed {}",
            summary.served,
            summary.shed()
        ));
    }
    let consistent = |o: &&RequestOutcome| match o.outcome {
        Outcome::Served { queue_wait, latency } => queue_wait >= 0.0 && latency >= queue_wait,
        Outcome::Shed { wait, .. } => wait >= 0.0,
    };
    if let Some(bad) = outcomes.iter().find(|o| !consistent(o)) {
        return Err(format!(
            "serve ledger: request {} has inconsistent timings {:?}",
            bad.id, bad.outcome
        ));
    }
    Ok(summary)
}

/// The decode ledgers: per request (`offered == served + shed`) and per
/// token step (step token counts reconcile with request outcomes).
pub fn check_decode_ledger(offered: usize, report: &DecodeReport) -> Result<(), String> {
    let s = report.summary();
    if s.offered != offered || !s.accounting_is_exact() {
        return Err(format!(
            "decode ledger: offered {offered} != served {} + shed {}",
            s.served,
            s.shed()
        ));
    }
    if !report.ledger_is_exact() {
        return Err("decode ledger: step token counts do not reconcile with request outcomes".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bt_frameworks::admission::ShedReason;
    use bt_frameworks::{run_decode_loop, DecodeConfig, DecodeRequest, ModeledDecodeEngine};
    use bt_varlen::paged::PagedLayout;

    fn padded(mask: &BatchMask, hidden: usize) -> Tensor {
        bt_frameworks::server::masked_randn(mask, hidden, 3)
    }

    #[test]
    fn encoder_gate_accepts_matching_outputs() {
        let mask = BatchMask::from_lens(vec![3, 5], 6).unwrap();
        let out = padded(&mask, 4);
        assert_eq!(check_encoder(&out, Some(&out), &mask, 1e-6), Ok(0.0));
    }

    #[test]
    fn encoder_gate_rejects_perturbed_outputs() {
        let mask = BatchMask::from_lens(vec![3, 5], 6).unwrap();
        let out = padded(&mask, 4);
        let mut drifted = out.clone();
        drifted.set(&[1, 4, 2], drifted.at(&[1, 4, 2]).unwrap() + 0.1).unwrap();
        assert!(check_encoder(&drifted, Some(&out), &mask, 1e-2).is_err());
        let mut leaked = out.clone();
        leaked.set(&[0, 4, 0], 1.0).unwrap();
        assert!(check_encoder(&leaked, None, &mask, 1e-2).is_err());
        let mut nan = out.clone();
        nan.set(&[0, 1, 1], f32::NAN).unwrap();
        assert!(check_encoder(&nan, None, &mask, 1e-2).is_err());
    }

    fn served(id: usize) -> RequestOutcome {
        RequestOutcome {
            id,
            len: 8,
            outcome: Outcome::Served {
                queue_wait: 0.01,
                latency: 0.02,
            },
        }
    }

    #[test]
    fn serve_ledger_counts_producer_rejections() {
        let mut ledger: Vec<RequestOutcome> = (0..3).map(served).collect();
        ledger.push(RequestOutcome {
            id: 3,
            len: 8,
            outcome: Outcome::Shed {
                reason: ShedReason::QueueFull,
                wait: 0.0,
            },
        });
        let s = check_serve_ledger(4, &ledger).unwrap();
        assert_eq!((s.served, s.shed()), (3, 1));
    }

    #[test]
    fn serve_ledger_rejects_missing_duplicate_and_unknown_ids() {
        let ledger: Vec<RequestOutcome> = (0..3).map(served).collect();
        assert!(check_serve_ledger(4, &ledger).is_err(), "missing id 3");
        let mut dup = ledger.clone();
        dup.push(served(1));
        assert!(check_serve_ledger(3, &dup).is_err(), "duplicate id 1");
        assert!(check_serve_ledger(2, &ledger).is_err(), "id 2 out of range");
        let mut time_travel = ledger;
        time_travel[0].outcome = Outcome::Served {
            queue_wait: 0.5,
            latency: 0.1,
        };
        assert!(check_serve_ledger(3, &time_travel).is_err());
    }

    fn decode_report() -> (usize, DecodeReport) {
        let requests: Vec<DecodeRequest> = (0..12)
            .map(|id| DecodeRequest {
                id,
                prompt_len: 3 + id % 5,
                decode_tokens: 1 + id % 4,
                arrival: 0.0,
            })
            .collect();
        let config = DecodeConfig {
            budget_tokens: 32,
            queue_capacity: 16,
            deadline: f64::INFINITY,
            max_prompt_len: 16,
            max_sessions: 4,
            chunk_tokens: 0,
        };
        let mut engine = ModeledDecodeEngine::new(PagedLayout::new(4, 64), 1e-6, 1e-7);
        (requests.len(), run_decode_loop(&requests, &config, &mut engine))
    }

    #[test]
    fn decode_ledger_accepts_a_real_run() {
        let (n, report) = decode_report();
        assert_eq!(check_decode_ledger(n, &report), Ok(()));
    }

    #[test]
    fn decode_ledger_rejects_perturbed_steps_and_outcomes() {
        let (n, report) = decode_report();
        let mut extra_token = report.clone();
        extra_token.steps[0].decode_sessions += 1;
        assert!(check_decode_ledger(n, &extra_token).is_err());
        let mut lost_request = report.clone();
        lost_request.outcomes.pop();
        assert!(check_decode_ledger(n, &lost_request).is_err());
        assert!(check_decode_ledger(n + 1, &report).is_err());
    }

    #[test]
    fn finite_gate_names_the_bad_value() {
        assert!(check_finite("x", &[1.0, 2.0]).is_ok());
        let err = check_finite("x", &[1.0, f32::INFINITY]).unwrap_err();
        assert!(err.contains("index 1"), "{err}");
    }
}
