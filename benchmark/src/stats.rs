//! The benchmark's own statistics: medians, quartiles, percentiles over
//! windows, and the regression verdict `compare` applies.

/// Median, quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is the
/// rule the acceptance gate uses. Fewer than two values have no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Summarise a sample.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        median: median(values),
        q1,
        q3,
        n: values.len(),
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an already sorted sample.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One percentile per window, for taking the median of the windows: one
/// slow window moves that less than it would move a whole-run percentile.
/// `samples` are `(window index, value)`; windows with fewer than
/// `min_samples` values (the ragged last one) are left out.
pub fn window_percentiles(samples: &[(u32, u64)], p: f64, min_samples: usize) -> Vec<f64> {
    let mut by_window: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
    for (w, v) in samples {
        by_window.entry(*w).or_default().push(*v);
    }
    by_window
        .into_values()
        .filter(|v| v.len() >= min_samples)
        .map(|mut v| {
            v.sort_unstable();
            percentile_sorted(&v, p) as f64
        })
        .collect()
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Not worse by more than the bound, but the run-to-run spread is
    /// wider than the bound, so "unchanged" cannot be claimed either.
    Unresolved,
}

/// By how much `new` is worse than `base`, as a share of `base`
/// (negative when it is better).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if new == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Higher => (base - new) / base.abs(),
        Better::Lower => (new - base) / base.abs(),
    }
}

/// The gate: worse beyond the bound fails; otherwise a spread wider than
/// the bound on either side leaves the row unresolved.
pub fn verdict(base: &Summary, new: &Summary, better: Better, bound: f64) -> Verdict {
    if worsening(base.median, new.median, better) > bound {
        Verdict::Worse
    } else if base.spread().max(new.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        let s = summarize(&[100.0, 102.0, 98.0, 101.0, 99.0]);
        assert_eq!((s.median, s.n), (100.0, 5));
        assert!((s.spread() - 0.03).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 500);
        assert_eq!(percentile_sorted(&v, 99.0), 990);
        assert_eq!(percentile_sorted(&v, 100.0), 1000);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
        assert_eq!(percentile_sorted(&[], 99.0), 0);
    }

    #[test]
    fn windowed_p99_is_median_of_windows_and_drops_ragged_tail() {
        let mut samples = Vec::new();
        for w in 0..5u32 {
            for i in 1..=100u64 {
                // Window 2 is ten times slower; the median ignores it.
                samples.push((w, if w == 2 { i * 10 } else { i }));
            }
        }
        samples.extend((0..10).map(|i| (5u32, 9_999 + i)));
        let p99 = window_percentiles(&samples, 99.0, 50);
        assert_eq!(p99, [99.0, 99.0, 990.0, 99.0, 99.0]);
        assert_eq!(median(&p99), 99.0);
        assert_eq!(median(&window_percentiles(&samples, 50.0, 50)), 50.0);
    }

    #[test]
    fn bound_logic() {
        let at = |median: f64, half: f64| Summary {
            median,
            q1: median - half,
            q3: median + half,
            n: 10,
        };
        // Throughput down 4 % within a 5 % bound: ok.
        assert_eq!(
            verdict(&at(100.0, 0.5), &at(96.0, 0.5), Better::Higher, 0.05),
            Verdict::Ok
        );
        // Down 6 %: worse, whatever the spread.
        assert_eq!(
            verdict(&at(100.0, 9.0), &at(94.0, 0.5), Better::Higher, 0.05),
            Verdict::Worse
        );
        // Latency up 6 % is worse, down 30 % is not.
        assert_eq!(
            verdict(&at(100.0, 0.5), &at(106.0, 0.5), Better::Lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&at(100.0, 0.5), &at(70.0, 0.5), Better::Lower, 0.05),
            Verdict::Ok
        );
        // Not worse, but the spread (8 %) is wider than the bound.
        assert_eq!(
            verdict(&at(100.0, 4.0), &at(100.0, 0.5), Better::Higher, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
    }
}
