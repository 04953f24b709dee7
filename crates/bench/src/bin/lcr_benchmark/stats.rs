//! Order statistics for the benchmark's timing samples.

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Smallest sample; `None` when empty.  This is the benchmark's estimate of
/// the time of a series: every run of a series does identical work, so the
/// rounds differ only by what the shared host added, and its noise is bursty
/// and lasts from milliseconds to minutes.  Over ten 20-second runs the
/// medians of a series differed by up to 25 % (quartile distance over
/// median) where the minima differed by 3–9 %; on the sharded executor,
/// whose lockstep threads wait on each other's wake-ups, no statistic is
/// steady (minimum 11–20 %, median 10–26 %) and the minimum has the best
/// worst case.
pub fn min(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().min_by(f64::total_cmp)
}

/// Nearest-rank percentile `p` (0–100], reported only when at least ten
/// samples lie beyond it — a tail read off fewer samples is noise, so a
/// p90 needs 100 samples and a p99 needs 1000.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    (rank >= 1 && sorted.len() >= rank + 10).then(|| sorted[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(min(&[4.0, 1.0, 2.0]), Some(1.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_the_rank() {
        let ramp = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // p90 of 100 samples is rank 90 with exactly ten beyond it.
        assert_eq!(tail_percentile(&ramp(100), 90.0), Some(90.0));
        // 99 samples: rank 90, only nine beyond — refused.
        assert_eq!(tail_percentile(&ramp(99), 90.0), None);
        // A median needs 20 samples under the same rule.
        assert_eq!(tail_percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(tail_percentile(&ramp(19), 50.0), None);
        assert_eq!(tail_percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(tail_percentile(&[], 90.0), None);
    }
}
