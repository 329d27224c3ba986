//! Sample statistics, seeded arrival schedules and process memory.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Fewest samples for which percentile `q` (in `(0, 1)`) may be reported.
pub fn min_samples(q: f64) -> usize {
    (MIN_BEYOND as f64 / (1.0 - q) - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `q` of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile must be in (0, 1)");
    if samples.len() < min_samples(q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let value = sorted[rank - 1];
    let beyond = sorted.iter().filter(|&&v| v > value).count();
    (beyond >= MIN_BEYOND).then_some(value)
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Arithmetic mean and population standard deviation.
pub fn mean_std(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Open-loop send offsets from the phase start: `count` Poisson arrivals at
/// `rate` per second, drawn from `seed` alone.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Open-loop send offsets at a fixed `rate` per second (a periodic
/// schedule: every request finds the same gap behind the previous one).
pub fn periodic_schedule(rate: f64, count: usize) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    (1..=count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(89.0));
        assert_eq!(percentile(&hundred[..19], 0.5), None);
        assert_eq!(percentile(&hundred[..20], 0.5), Some(9.0));
        // Ties at the percentile do not count as lying beyond it.
        let mut tied = vec![1.0; 95];
        tied.extend((0..9).map(|i| 2.0 + f64::from(i)));
        assert_eq!(percentile(&tied, 0.9), None);
    }

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let a = poisson_schedule(7, 36.0, 200);
        assert_eq!(a, poisson_schedule(7, 36.0, 200));
        assert_ne!(a, poisson_schedule(8, 36.0, 200));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let span = a.last().unwrap().as_secs_f64();
        assert!((span - 200.0 / 36.0).abs() < 2.0, "span {span}");
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!((m, s), (3.0, 1.0));
    }
}
