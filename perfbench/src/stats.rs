//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is a nearest-rank percentile of
//! the raw samples, never a histogram bucket representative: the value it
//! returns is always one of the samples.

use std::time::{Duration, Instant};

/// Sorts samples ascending (total order, so a stray NaN cannot panic).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `per_mille`/1000 of all samples at or below it.
/// Rank arithmetic is integral, so p99 of 100 samples is exactly the
/// 99th, never the 100th through a float rounding.
///
/// # Panics
///
/// Panics on an empty sample or a `per_mille` outside `1..=1000`.
pub fn nearest_rank(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!((1..=1000).contains(&per_mille), "per_mille must be in 1..=1000");
    let rank = (per_mille * sorted.len()).div_ceil(1000);
    sorted[rank - 1]
}

/// The nearest-rank median (the lower middle for an even count).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples.to_vec()), 500)
}

/// Milliseconds in `d`, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Events per second over the exact span of the events inside
/// `[start, end)`: the gaps between the first and the last of them, over
/// the time they took. `None` with fewer than two events.
pub fn rate(events: &[Instant], start: Instant, end: Instant) -> Option<f64> {
    let inside = || events.iter().copied().filter(|&t| t >= start && t < end);
    let n = inside().count();
    let (first, last) = (inside().min()?, inside().max()?);
    (n >= 2 && last > first).then(|| (n - 1) as f64 / (last - first).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_textbook_sample() {
        let s = one_to(100);
        assert_eq!(nearest_rank(&s, 500), 50.0);
        assert_eq!(nearest_rank(&s, 900), 90.0);
        assert_eq!(nearest_rank(&s, 990), 99.0);
        assert_eq!(nearest_rank(&s, 1000), 100.0);
        assert_eq!(nearest_rank(&s, 1), 1.0);
    }

    #[test]
    fn nearest_rank_rounds_the_rank_up() {
        // Rank ceil(0.99 * 10) = 10: with ten samples p99 is the maximum.
        assert_eq!(nearest_rank(&one_to(10), 990), 10.0);
        // Rank ceil(0.5 * 4) = 2: the lower middle, not an interpolation.
        assert_eq!(nearest_rank(&one_to(4), 500), 2.0);
        // Rank ceil(0.9 * 11) = 10.
        assert_eq!(nearest_rank(&one_to(11), 900), 10.0);
        // One sample is every percentile.
        for p in [1, 500, 990, 1000] {
            assert_eq!(nearest_rank(&[7.5], p), 7.5);
        }
    }

    #[test]
    fn percentiles_are_samples_not_representatives() {
        let raw = vec![212.5, 0.25, 3.0, 212.25, 9.0, 1e-3, 212.75, 4.0];
        let s = sorted(raw.clone());
        for p in (1..=1000).step_by(7) {
            let v = nearest_rank(&s, p);
            assert!(raw.contains(&v), "p{p} = {v} is not a sample");
        }
        assert_eq!(nearest_rank(&s, 990), 212.75);
        assert_eq!(nearest_rank(&s, 500), 4.0);
    }

    #[test]
    fn ties_and_unsorted_input() {
        let s = sorted(vec![5.0, 1.0, 5.0, 5.0, 2.0]);
        assert_eq!(s, vec![1.0, 2.0, 5.0, 5.0, 5.0]);
        assert_eq!(nearest_rank(&s, 500), 5.0);
        assert_eq!(nearest_rank(&s, 400), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        nearest_rank(&[], 500);
    }

    #[test]
    fn rate_spans_first_to_last_event() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        // Four gaps in 200 ms inside the window; the events before the
        // start and at the end bound are outside it.
        let events = vec![at(0), at(50), at(60), at(100), at(150), at(250), at(300)];
        let r = rate(&events, at(10), at(300)).unwrap();
        assert!((r - 20.0).abs() < 1e-9, "{r}");
        assert_eq!(rate(&events[..1], t0, at(50)), None);
        assert_eq!(rate(&[at(5), at(5)], t0, at(50)), None);
    }
}
