//! Order statistics for the report.

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `ceil(q/100 · n)` samples at or below it. 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples a percentile must leave beyond its rank to be reported.
pub const TAIL_BEYOND: usize = 10;

/// The highest whole percentile from 50 to 99 whose nearest rank leaves
/// at least [`TAIL_BEYOND`] samples beyond it, for `n` samples; `None`
/// when not even the median qualifies.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&q| {
        let rank = (q as usize * n).div_ceil(100);
        rank >= 1 && n - rank >= TAIL_BEYOND
    })
}

/// Nearest-rank quantile `q` (0–100) of unsorted `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0 * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The latencies of `calls` (`(start_ns, latency_ns)`) in the quieter
/// three quarters of the `window_ns`-long windows they start in: windows
/// are ranked by their mean latency and the slowest quarter is dropped
/// (at least one window is kept). The host's I/O and steal come in bursts
/// of seconds, and a burst slows every call in the windows it covers.
pub fn quiet_calls(calls: &[(u64, u64)], window_ns: u64) -> Vec<u64> {
    let mut windows: Vec<Vec<u64>> = Vec::new();
    for &(start, lat) in calls {
        let w = (start / window_ns.max(1)) as usize;
        if windows.len() <= w {
            windows.resize_with(w + 1, Vec::new);
        }
        windows[w].push(lat);
    }
    windows.retain(|w| !w.is_empty());
    let mean = |w: &Vec<u64>| w.iter().sum::<u64>() as f64 / w.len() as f64;
    windows.sort_by(|a, b| mean(a).total_cmp(&mean(b)));
    let keep = (windows.len() * 3).div_ceil(4).max(1);
    windows.into_iter().take(keep).flatten().collect()
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Median of integer samples, as `f64`.
pub fn median_u64(v: &[u64]) -> f64 {
    let f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    median(&f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        let s = [10, 20, 30, 40];
        assert_eq!(percentile(&s, 50.0), 20, "rank ceil(2) = 2, no interpolation");
        assert_eq!(percentile(&s, 51.0), 30);
        assert_eq!(percentile(&s, 75.0), 30);
        assert_eq!(percentile(&s, 76.0), 40);
        assert_eq!(percentile(&s, 0.0), 10, "rank clamps to 1");
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99), "rank 990 leaves 10");
        assert_eq!(tail_percentile(999), Some(98), "p99 would leave 9");
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        for n in [20, 57, 400, 1000, 123_456] {
            let q = tail_percentile(n).unwrap() as usize;
            assert!(n - (q * n).div_ceil(100) >= TAIL_BEYOND, "n={n}");
            if q < 99 {
                assert!(n - ((q + 1) * n).div_ceil(100) < TAIL_BEYOND, "n={n}: q+1 qualifies");
            }
        }
    }

    #[test]
    fn quantile_is_nearest_rank() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 25.0), 1.0);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 75.0), 3.0);
        assert_eq!(quantile(&[7.0], 25.0), 7.0);
    }

    #[test]
    fn quiet_calls_drop_the_slowest_quarter_of_windows() {
        // four windows of 10 ns; window 2 is slow
        let calls = [(0, 10), (1, 12), (10, 11), (15, 50), (20, 90), (25, 95), (30, 9)];
        let mut kept = quiet_calls(&calls, 10);
        kept.sort_unstable();
        assert_eq!(kept, [9, 10, 11, 12, 50], "window 2 (90, 95) is dropped");
        // 5 windows keep ceil(15/4) = 4; one window is always kept
        let five: Vec<(u64, u64)> = (0..5).map(|w| (w * 10, 100 - w)).collect();
        assert_eq!(quiet_calls(&five, 10).len(), 4);
        assert_eq!(quiet_calls(&[(3, 7)], 10), [7]);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_u64(&[5, 1, 9]), 5.0);
    }
}
