//! Order statistics, the tail-percentile rule and process memory.

/// The median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The arithmetic mean of `values`; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The value at quantile `q` of an ascending-sorted slice (nearest rank).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A latency tail: the highest percentile that still has at least ten
/// samples beyond it, capped at p95.
///
/// The cap is p95 and not p99 because the samples of a run are answers to
/// a pool of generated queries whose costs span three orders of magnitude:
/// p99 is decided by the two or three most expensive queries a seed happens
/// to draw — a property of the seed, not of the system — and moves by a
/// factor of three from one seed to the next. p95 has ten *distinct*
/// queries beyond it in every pool of 200 and more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub percentile: f64,
    /// The value at that percentile.
    pub value: f64,
}

/// Timing summary of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The tail (see [`Tail`]).
    pub tail: Tail,
}

/// Median and tail of `samples`. With `n ≥ 200` the tail is p95; below
/// that it is the sample with exactly ten larger ones (the maximum when
/// there are ten samples or fewer).
pub fn summarize(samples: &[f64]) -> Summary {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        let nan = Tail {
            percentile: f64::NAN,
            value: f64::NAN,
        };
        return Summary {
            n,
            p50: f64::NAN,
            tail: nan,
        };
    }
    let beyond = 10usize.max(n / 20);
    let idx = n.saturating_sub(beyond + 1);
    Summary {
        n,
        p50: quantile_sorted(&v, 0.5),
        tail: Tail {
            percentile: 100.0 * (idx + 1) as f64 / n as f64,
            value: v[idx],
        },
    }
}

/// Windows a run's samples are split into by [`summarize_windows`].
pub const WINDOWS: usize = 5;

/// Median and tail of `samples` (in the order they were taken) as the
/// *median over [`WINDOWS`] consecutive windows* of each window's own
/// median and tail. A scheduler hiccup or a noisy neighbour lasts a fraction
/// of a second and lands in one window; it moves that window's tail and
/// leaves the median of the five alone, where it would move a tail taken
/// over all samples at once. Runs with fewer than 200 samples per window
/// are summarised whole.
pub fn summarize_windows(samples: &[f64]) -> Summary {
    let per_window = samples.len() / WINDOWS;
    if per_window < 200 {
        return summarize(samples);
    }
    let windows: Vec<Summary> = samples.chunks_exact(per_window).map(summarize).collect();
    let of = |f: fn(&Summary) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    Summary {
        n: samples.len(),
        p50: of(|w| w.p50),
        tail: Tail {
            percentile: of(|w| w.tail.percentile),
            value: of(|w| w.tail.value),
        },
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.tail.value, 40.0);
        assert_eq!(s.tail.percentile, 80.0);
        assert_eq!(s.p50, 25.0);
    }

    #[test]
    fn tail_is_p95_from_two_hundred_samples() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(s.tail.value, 1900.0);
        assert_eq!(s.tail.percentile, 95.0);
    }

    #[test]
    fn one_bad_window_does_not_move_the_tail() {
        // five windows of 400 samples, 1..=400 ms each; the third stalls
        let mut samples: Vec<f64> = (0..2000).map(|i| f64::from(i % 400 + 1)).collect();
        for s in &mut samples[800..1200] {
            *s += 10_000.0;
        }
        let windowed = summarize_windows(&samples);
        assert_eq!((windowed.p50, windowed.tail.value), (200.0, 380.0));
        assert!(summarize(&samples).tail.value > 10_000.0);
        // too few samples for windows: summarised whole
        assert_eq!(
            summarize_windows(&samples[..500]),
            summarize(&samples[..500])
        );
    }

    #[test]
    fn median_of_even_count_averages() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
