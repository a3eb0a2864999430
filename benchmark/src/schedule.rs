//! The open-loop arrival schedule of `serve_paced` and its latency
//! accounting.
//!
//! Arrivals have exponential gaps at a fixed rate, ordered by the seed.
//! Every request is timed from the instant it was *due*, not from when
//! the generator got round to sending it, so a stall (in the generator or
//! in the system under test) is charged to every request it delayed
//! instead of silently thinning the load — the coordinated-omission
//! correction.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Due times in seconds from the start of the timed region, ascending,
/// in `(0, horizon_s)`: `round(rate_per_s · horizon_s)` arrivals with
/// exponential gaps. The gaps are the exponential distribution's own
/// quantiles (`−ln(1 − (i + ½)/n) / rate`), the seed decides only their
/// order: every seed offers exactly the fixed rate and the same mix of
/// short and long gaps, and differs in which follow which. Independent
/// draws would make the share of requests that queue behind another one
/// wander by a few percent from seed to seed, and `op_ms_p90` sits right
/// in that share. The same seed gives the same schedule.
pub fn exponential_quantile_schedule(seed: u64, rate_per_s: f64, horizon_s: f64) -> Vec<f64> {
    assert!(
        rate_per_s > 0.0 && horizon_s > 0.0,
        "positive rate and horizon"
    );
    let n = (rate_per_s * horizon_s).round() as usize;
    let mut gaps: Vec<f64> = (0..n)
        .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln() / rate_per_s)
        .collect();
    // Fisher–Yates
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        gaps.swap(i, rng.gen_range(0..=i));
    }
    // The last arrival lands one mean gap short of the horizon.
    let scale = horizon_s / (gaps.iter().sum::<f64>() + 1.0 / rate_per_s);
    let mut t = 0.0;
    gaps.iter()
        .map(|g| {
            t += g * scale;
            t
        })
        .collect()
}

/// Send and completion instants of one open-loop request, seconds from
/// the start of the timed region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the schedule said the request should enter.
    pub due_s: f64,
    /// When the generator actually began sending it.
    pub sent_s: f64,
    /// When its result was in the caller's hands.
    pub done_s: f64,
}

impl Timing {
    /// Latency a user who arrived on schedule saw, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    /// How late the generator was, ms (never negative: it does not send
    /// early).
    pub fn late_ms(&self) -> f64 {
        ((self.sent_s - self.due_s) * 1e3).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_reproducible_per_seed_and_hits_the_rate() {
        let a = exponential_quantile_schedule(7, 100.0, 50.0);
        let b = exponential_quantile_schedule(7, 100.0, 50.0);
        let c = exponential_quantile_schedule(8, 100.0, 50.0);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!(a.iter().all(|&t| (0.0..50.0).contains(&t)));
        assert_eq!(a.len(), 5000, "the offered rate is exact");
        // every seed draws the same gaps, in another order
        let sorted_gaps = |due: &[f64]| {
            let mut g: Vec<f64> = std::iter::once(due[0])
                .chain(due.windows(2).map(|w| w[1] - w[0]))
                .collect();
            g.sort_by(|x, y| x.partial_cmp(y).unwrap());
            g
        };
        for (x, y) in sorted_gaps(&a).iter().zip(sorted_gaps(&c)) {
            assert!((x - y).abs() < 1e-9);
        }
        // exponential gaps: the coefficient of variation is 1
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.9..1.1).contains(&cv), "gap cv {cv}");
    }

    /// A 50 ms stall in a server that otherwise answers in 1 ms: requests
    /// due every 10 ms. Timed from the send, one request looks slow; timed
    /// from the due instant, every request the stall delayed carries its
    /// share of the wait.
    #[test]
    fn due_time_accounting_charges_a_stall_to_every_delayed_request() {
        let service = 0.001;
        let stall_at = 0.020;
        let stall = 0.050;
        let mut free_at = 0.0f64; // the single server/generator is serial
        let mut timings = Vec::new();
        for i in 0..10 {
            let due_s = i as f64 * 0.010;
            let sent_s = due_s.max(free_at);
            let mut done_s = sent_s + service;
            if (sent_s..done_s).contains(&stall_at) {
                done_s += stall;
            }
            free_at = done_s;
            timings.push(Timing {
                due_s,
                sent_s,
                done_s,
            });
        }
        let from_due: Vec<f64> = timings.iter().map(Timing::latency_ms).collect();
        let from_send: Vec<f64> = timings
            .iter()
            .map(|t| (t.done_s - t.sent_s) * 1e3)
            .collect();
        // From the send only the stalled request itself is slow…
        assert_eq!(from_send.iter().filter(|&&l| l > 2.0).count(), 1);
        // …from the due instant so are the five queued behind it: due at
        // 30–70 ms while the server was held until 71 ms and then worked
        // the backlog off one millisecond at a time.
        assert_eq!(from_due.iter().filter(|&&l| l > 2.0).count(), 6);
        assert!((from_due[2] - 51.0).abs() < 1e-6);
        assert!((from_due[3] - 42.0).abs() < 1e-6);
        // lateness is exactly the part of that wait spent before sending
        assert_eq!(timings[2].late_ms(), 0.0);
        assert!((timings[3].late_ms() - 41.0).abs() < 1e-6);
        assert_eq!(timings[9].late_ms(), 0.0, "the backlog drains");
    }
}
